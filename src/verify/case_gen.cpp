#include "verify/case_gen.hpp"

#include <algorithm>
#include <stdexcept>

#include "db/codecs.hpp"
#include "flow/snapshot.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"

namespace tsteiner::verify {

namespace {

// Structural floors the shrinker may not cross (generate_design's own
// minimums plus enough registers to keep a clocked path).
constexpr int kMinComb = 8;
constexpr int kMinRegs = 2;
constexpr int kMinPorts = 2;

FuzzCase finish_case(std::uint64_t seed, const std::string& scale,
                     const GeneratorParams& params) {
  // Everything except the structural sizes comes from fixed substreams of
  // the case seed, so a shrunk case differs from the original only in size.
  Rng knobs(Rng::mix(seed, 0xC10C));
  const double clock_frac = knobs.uniform(0.55, 0.95);

  FuzzCase c{seed,   scale, params, clock_frac, 0.0,
             generate_design(fuzz_library(), params), SteinerForest{}};
  place_design(c.design);
  c.forest = build_forest(c.design);

  // Clock tight enough that some endpoints violate (the regime refinement
  // and the smoothed penalty are designed for).
  const StaResult sta = run_sta(c.design, c.forest, nullptr);
  c.design.set_clock_period(sta.max_arrival > 0.0 ? clock_frac * sta.max_arrival : 1.0);

  const double die_w = static_cast<double>(c.design.die().width());
  c.disturb_dist = std::max(4.0, knobs.uniform(0.05, 0.20) * die_w);
  return c;
}

}  // namespace

const CellLibrary& fuzz_library() {
  static const CellLibrary lib = CellLibrary::make_default();
  return lib;
}

GeneratorParams derive_params(std::uint64_t seed, const std::string& scale) {
  Rng rng(Rng::mix(seed, 0x5ca1e));
  GeneratorParams p;
  if (scale == "tiny") {
    p.num_comb_cells = static_cast<int>(rng.uniform_int(24, 96));
  } else if (scale == "small") {
    p.num_comb_cells = static_cast<int>(rng.uniform_int(120, 360));
  } else {
    throw std::runtime_error("unknown fuzz scale: " + scale);
  }
  p.num_registers =
      std::max(kMinRegs, p.num_comb_cells / static_cast<int>(rng.uniform_int(6, 10)));
  p.num_primary_inputs = static_cast<int>(rng.uniform_int(2, 6));
  p.num_primary_outputs = static_cast<int>(rng.uniform_int(2, 6));
  p.seed = Rng::mix(seed, 0xde51);
  p.name = "fuzz-" + std::to_string(seed);
  return p;
}

FuzzCase make_case(std::uint64_t seed, const std::string& scale) {
  return finish_case(seed, scale, derive_params(seed, scale));
}

FuzzCase make_case_from_params(std::uint64_t seed, const std::string& scale,
                               const GeneratorParams& params) {
  return finish_case(seed, scale, params);
}

FuzzCase shrink_case(const FuzzCase& failing,
                     const std::function<bool(const FuzzCase&)>& still_fails,
                     int max_attempts) {
  FuzzCase best = failing;
  int attempts = 0;
  bool progressed = true;
  while (progressed && attempts < max_attempts) {
    progressed = false;
    // Candidate reductions, boldest first; each regenerates from the same
    // seed so the shrunk case remains a (seed, params) one-liner.
    const GeneratorParams& b = best.params;
    GeneratorParams candidates[4] = {b, b, b, b};
    candidates[0].num_comb_cells = std::max(kMinComb, b.num_comb_cells / 2);
    candidates[1].num_comb_cells = std::max(kMinComb, (b.num_comb_cells * 3) / 4);
    candidates[2].num_registers = std::max(kMinRegs, b.num_registers / 2);
    candidates[3].num_primary_inputs = std::max(kMinPorts, b.num_primary_inputs / 2);
    candidates[3].num_primary_outputs = std::max(kMinPorts, b.num_primary_outputs / 2);
    for (const GeneratorParams& cand : candidates) {
      if (cand.num_comb_cells == b.num_comb_cells &&
          cand.num_registers == b.num_registers &&
          cand.num_primary_inputs == b.num_primary_inputs &&
          cand.num_primary_outputs == b.num_primary_outputs) {
        continue;  // already at the floor for this reduction
      }
      if (attempts >= max_attempts) break;
      ++attempts;
      FuzzCase smaller = make_case_from_params(best.seed, best.scale, cand);
      if (still_fails(smaller)) {
        best = std::move(smaller);
        progressed = true;
        break;  // restart from the new, smaller case
      }
    }
  }
  return best;
}

bool save_case_snapshot(const FuzzCase& c, const std::string& path) {
  db::DbWriter writer;
  if (!writer.open(path)) return false;

  db::Meta meta;
  meta.kind = "fuzz-case";
  meta.tag = "seed=" + std::to_string(c.seed) + " scale=" + c.scale;
  meta.design_count = 1;
  meta.library_fingerprint = db::library_fingerprint(fuzz_library());

  BenchmarkSpec spec;
  spec.name = c.params.name;
  spec.target_cells = static_cast<int>(c.num_cells());
  spec.endpoints = static_cast<int>(c.design.endpoint_pins().size());
  spec.seed = c.seed;

  // No FCAL: a case's clock lives in its design and it has no pinned
  // routing capacities.
  return writer.add_chunk(db::kChunkMeta, db::encode_meta(meta)) &&
         writer.add_chunk(db::kChunkLibrary, db::encode_library(fuzz_library())) &&
         write_design_record(writer, 0, spec, c.design, nullptr, c.forest) && writer.finish();
}

}  // namespace tsteiner::verify
