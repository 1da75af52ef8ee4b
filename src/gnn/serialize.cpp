#include "gnn/serialize.hpp"

namespace tsteiner {

void encode_tensors(db::ByteWriter& w, const std::vector<Tensor>& params) {
  w.u32(static_cast<std::uint32_t>(params.size()));
  for (const Tensor& p : params) {
    w.u64(p.rows());
    w.u64(p.cols());
    w.f64_vec(p.data());
  }
}

bool decode_tensors(db::ByteReader& r, std::vector<Tensor>& params) {
  const std::uint32_t count = r.u32();
  if (!r.ok() || count != params.size()) return false;
  for (Tensor& p : params) {
    const std::uint64_t rows = r.u64();
    const std::uint64_t cols = r.u64();
    std::vector<double> values = r.f64_vec();
    if (!r.ok() || rows != p.rows() || cols != p.cols() || values.size() != p.size()) {
      return false;
    }
    p.data() = std::move(values);
  }
  return true;
}

std::vector<std::uint8_t> encode_model_payload(const TimingGnn& model, const std::string& tag) {
  db::ByteWriter w;
  const GnnConfig& c = model.config();
  w.str(tag);
  w.i32(c.hidden);
  w.i32(c.type_embed);
  w.i32(c.delay_hidden);
  w.i32(c.steiner_iters);
  w.f64(c.soft_abs_delta);
  w.u8(c.physics_anchor ? 1 : 0);
  w.u64(c.seed);
  encode_tensors(w, model.parameters());
  return w.take();
}

namespace {

bool config_equal(const GnnConfig& a, const GnnConfig& b) {
  return a.hidden == b.hidden && a.type_embed == b.type_embed &&
         a.delay_hidden == b.delay_hidden && a.steiner_iters == b.steiner_iters &&
         a.soft_abs_delta == b.soft_abs_delta && a.physics_anchor == b.physics_anchor &&
         a.seed == b.seed;
}

/// Shared body of the two decode entry points: reads tag + stored config,
/// then either validates against `expected` (strict mode) or adopts the
/// stored config as-is (self-describing mode).
std::optional<TimingGnn> decode_model_common(const std::uint8_t* data, std::size_t size,
                                             const GnnConfig* expected, int num_cell_types,
                                             const std::string* expected_tag,
                                             std::string* tag_out) {
  db::ByteReader r(data, size);
  const std::string stored_tag = r.str();
  if (expected_tag != nullptr && stored_tag != *expected_tag) return std::nullopt;
  if (tag_out != nullptr) *tag_out = stored_tag;
  GnnConfig stored;
  stored.hidden = r.i32();
  stored.type_embed = r.i32();
  stored.delay_hidden = r.i32();
  stored.steiner_iters = r.i32();
  stored.soft_abs_delta = r.f64();
  stored.physics_anchor = r.u8() != 0;
  stored.seed = r.u64();
  if (!r.ok()) return std::nullopt;
  if (expected != nullptr && !config_equal(stored, *expected)) return std::nullopt;
  // Structural sanity for the self-describing path: the dims size parameter
  // tensors, so hostile values must not reach the constructor.
  if (stored.hidden <= 0 || stored.hidden > 4096 || stored.type_embed <= 0 ||
      stored.type_embed > 4096 || stored.delay_hidden <= 0 || stored.delay_hidden > 4096 ||
      stored.steiner_iters <= 0 || stored.steiner_iters > 64) {
    return std::nullopt;
  }

  TimingGnn model(stored, num_cell_types);
  if (!decode_tensors(r, model.parameters()) || !r.done()) return std::nullopt;
  return model;
}

}  // namespace

std::optional<TimingGnn> decode_model_payload(const std::uint8_t* data, std::size_t size,
                                              const GnnConfig& config, int num_cell_types,
                                              const std::string& tag) {
  return decode_model_common(data, size, &config, num_cell_types, &tag, nullptr);
}

std::optional<TimingGnn> decode_model_payload_any(const std::uint8_t* data, std::size_t size,
                                                  int num_cell_types, std::string* tag_out) {
  return decode_model_common(data, size, nullptr, num_cell_types, nullptr, tag_out);
}

}  // namespace tsteiner
