#include "db/codecs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "db/bytes.hpp"
#include "db/crc32.hpp"

namespace tsteiner {

struct DesignSnapshotAccess {
  static std::vector<Cell>& cells(Design& d) { return d.cells_; }
  static std::vector<Pin>& pins(Design& d) { return d.pins_; }
  static std::vector<Net>& nets(Design& d) { return d.nets_; }
};

}  // namespace tsteiner

namespace tsteiner::db {

namespace {

void put_lut(ByteWriter& w, const Lut2& lut) {
  w.f64_vec(lut.slew_axis());
  w.f64_vec(lut.load_axis());
  w.f64_vec(lut.values());
}

std::optional<Lut2> take_lut(ByteReader& r) {
  std::vector<double> slews = r.f64_vec();
  std::vector<double> loads = r.f64_vec();
  std::vector<double> values = r.f64_vec();
  if (!r.ok() || slews.empty() || loads.empty() ||
      values.size() != slews.size() * loads.size()) {
    return std::nullopt;
  }
  for (double v : slews) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  for (double v : loads) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  if (!std::is_sorted(slews.begin(), slews.end()) ||
      !std::is_sorted(loads.begin(), loads.end())) {
    return std::nullopt;
  }
  return Lut2(std::move(slews), std::move(loads), std::move(values));
}

void put_point_i(ByteWriter& w, const PointI& p) {
  w.i64(p.x);
  w.i64(p.y);
}

PointI take_point_i(ByteReader& r) {
  PointI p;
  p.x = r.i64();
  p.y = r.i64();
  return p;
}

}  // namespace

std::vector<std::uint8_t> encode_meta(const Meta& meta) {
  ByteWriter w;
  w.str(meta.kind);
  w.str(meta.tag);
  w.u32(meta.design_count);
  w.u8(meta.has_model ? 1 : 0);
  w.f64(meta.final_train_loss);
  w.u32(meta.library_fingerprint);
  return w.take();
}

std::optional<Meta> decode_meta(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  Meta m;
  m.kind = r.str();
  m.tag = r.str();
  m.design_count = r.u32();
  m.has_model = r.u8() != 0;
  m.final_train_loss = r.f64();
  m.library_fingerprint = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<Meta> read_meta(const DbReader& reader) {
  const ChunkInfo* chunk = reader.find(kChunkMeta);
  if (chunk == nullptr) return std::nullopt;
  return decode_meta(reader.payload(*chunk), static_cast<std::size_t>(chunk->size));
}

std::vector<std::uint8_t> index_prefixed(std::uint32_t index,
                                         const std::vector<std::uint8_t>& payload) {
  ByteWriter w;
  w.u32(index);
  w.raw(payload);
  return w.take();
}

std::optional<std::vector<std::span<const std::uint8_t>>> collect_indexed(
    const DbReader& reader, std::uint32_t type, std::uint32_t count) {
  const std::vector<const ChunkInfo*> chunks = reader.find_all(type);
  // Exactly once means one chunk per index; checking the count first also
  // keeps a hostile design count from sizing the table.
  if (chunks.size() != count) return std::nullopt;
  std::vector<std::span<const std::uint8_t>> out(count);
  for (const ChunkInfo* chunk : chunks) {
    if (chunk->size < 4) return std::nullopt;
    ByteReader r(reader.payload(*chunk), 4);
    const std::uint32_t index = r.u32();
    if (index >= count || out[index].data() != nullptr) return std::nullopt;
    out[index] = {reader.payload(*chunk) + 4, static_cast<std::size_t>(chunk->size) - 4};
  }
  return out;
}

std::vector<std::uint8_t> encode_library(const CellLibrary& lib) {
  ByteWriter w;
  w.f64(lib.wire_res_kohm_per_dbu());
  w.f64(lib.wire_cap_pf_per_dbu());
  w.f64(lib.via_res_kohm());
  w.u32(static_cast<std::uint32_t>(lib.num_types()));
  for (int i = 0; i < lib.num_types(); ++i) {
    const CellType& t = lib.type(i);
    w.str(t.name);
    w.i32(t.num_inputs);
    w.u8(t.is_register ? 1 : 0);
    w.f64(t.input_cap_pf);
    w.f64(t.drive_res_kohm);
    w.f64(t.area);
    w.f64(t.setup_ns);
    w.u32(static_cast<std::uint32_t>(t.arcs.size()));
    for (const TimingArc& arc : t.arcs) {
      w.i32(arc.from_input);
      put_lut(w, arc.delay);
      put_lut(w, arc.out_slew);
    }
  }
  return w.take();
}

std::optional<CellLibrary> decode_library(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  const double wire_res = r.f64();
  const double wire_cap = r.f64();
  const double via_res = r.f64();
  const std::uint32_t num_types = r.u32();
  if (!r.ok() || num_types > 100000) return std::nullopt;
  std::vector<CellType> types;
  types.reserve(num_types);
  for (std::uint32_t i = 0; i < num_types; ++i) {
    CellType t;
    t.name = r.str();
    t.num_inputs = r.i32();
    t.is_register = r.u8() != 0;
    t.input_cap_pf = r.f64();
    t.drive_res_kohm = r.f64();
    t.area = r.f64();
    t.setup_ns = r.f64();
    const std::uint32_t num_arcs = r.u32();
    if (!r.ok() || t.num_inputs < 0 || num_arcs > 1000) return std::nullopt;
    for (std::uint32_t a = 0; a < num_arcs; ++a) {
      TimingArc arc;
      arc.from_input = r.i32();
      auto delay = take_lut(r);
      auto out_slew = take_lut(r);
      if (!delay || !out_slew || arc.from_input < 0 || arc.from_input >= t.num_inputs) {
        return std::nullopt;
      }
      arc.delay = std::move(*delay);
      arc.out_slew = std::move(*out_slew);
      t.arcs.push_back(std::move(arc));
    }
    types.push_back(std::move(t));
  }
  if (!r.done()) return std::nullopt;
  return CellLibrary::from_parts(std::move(types), wire_res, wire_cap, via_res);
}

std::uint32_t library_fingerprint(const CellLibrary& lib) {
  return crc32(encode_library(lib));
}

std::vector<std::uint8_t> encode_design(const BenchmarkSpec& spec, const Design& design) {
  ByteWriter w;
  w.str(spec.name);
  w.i32(spec.target_cells);
  w.i32(spec.endpoints);
  w.u8(spec.is_training ? 1 : 0);
  w.u64(spec.seed);

  w.str(design.name());
  put_point_i(w, design.die().lo);
  put_point_i(w, design.die().hi);
  w.f64(design.clock_period());

  w.u32(static_cast<std::uint32_t>(design.cells().size()));
  for (const Cell& c : design.cells()) {
    w.i32(c.type);
    put_point_i(w, c.pos);
    w.i32_vec(c.input_pins);
    w.i32(c.output_pin);
    w.str(c.name);
  }
  w.u32(static_cast<std::uint32_t>(design.pins().size()));
  for (const Pin& p : design.pins()) {
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.i32(p.cell);
    w.i32(p.net);
    w.i32(p.input_slot);
    put_point_i(w, p.port_pos);
  }
  w.u32(static_cast<std::uint32_t>(design.nets().size()));
  for (const Net& n : design.nets()) {
    w.i32(n.driver_pin);
    w.i32_vec(n.sink_pins);
    w.str(n.name);
  }
  return w.take();
}

std::optional<DecodedDesign> decode_design(const std::uint8_t* data, std::size_t size,
                                           const CellLibrary& library) {
  ByteReader r(data, size);
  BenchmarkSpec spec;
  spec.name = r.str();
  spec.target_cells = r.i32();
  spec.endpoints = r.i32();
  spec.is_training = r.u8() != 0;
  spec.seed = r.u64();

  std::string design_name = r.str();
  if (!r.ok()) return std::nullopt;
  Design design(std::move(design_name), &library);
  RectI die;
  die.lo = take_point_i(r);
  die.hi = take_point_i(r);
  design.set_die(die);
  design.set_clock_period(r.f64());

  const std::uint32_t num_cells = r.u32();
  if (!r.ok() || num_cells > r.remaining()) return std::nullopt;
  std::vector<Cell>& cells = DesignSnapshotAccess::cells(design);
  cells.reserve(num_cells);
  for (std::uint32_t i = 0; i < num_cells; ++i) {
    Cell c;
    c.id = static_cast<int>(i);
    c.type = r.i32();
    c.pos = take_point_i(r);
    c.input_pins = r.i32_vec();
    c.output_pin = r.i32();
    c.name = r.str();
    if (!r.ok() || c.type < 0 || c.type >= library.num_types()) return std::nullopt;
    cells.push_back(std::move(c));
  }

  const std::uint32_t num_pins = r.u32();
  if (!r.ok() || num_pins > r.remaining()) return std::nullopt;
  std::vector<Pin>& pins = DesignSnapshotAccess::pins(design);
  pins.reserve(num_pins);
  for (std::uint32_t i = 0; i < num_pins; ++i) {
    Pin p;
    p.id = static_cast<int>(i);
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(PinKind::kPrimaryOutput)) return std::nullopt;
    p.kind = static_cast<PinKind>(kind);
    p.cell = r.i32();
    p.net = r.i32();
    p.input_slot = r.i32();
    p.port_pos = take_point_i(r);
    if (!r.ok() || p.cell < -1 || p.cell >= static_cast<int>(num_cells)) return std::nullopt;
    pins.push_back(p);
  }

  const std::uint32_t num_nets = r.u32();
  if (!r.ok() || num_nets > r.remaining()) return std::nullopt;
  std::vector<Net>& nets = DesignSnapshotAccess::nets(design);
  nets.reserve(num_nets);
  for (std::uint32_t i = 0; i < num_nets; ++i) {
    Net n;
    n.id = static_cast<int>(i);
    n.driver_pin = r.i32();
    n.sink_pins = r.i32_vec();
    n.name = r.str();
    if (!r.ok() || n.driver_pin < 0 || n.driver_pin >= static_cast<int>(num_pins)) {
      return std::nullopt;
    }
    for (int s : n.sink_pins) {
      if (s < 0 || s >= static_cast<int>(num_pins)) return std::nullopt;
    }
    nets.push_back(std::move(n));
  }
  if (!r.done()) return std::nullopt;

  // Per-cell pin references, then the full structural invariant (driver/sink
  // cross references, connected inputs, cells inside the die, acyclicity).
  for (const Cell& c : design.cells()) {
    if (c.output_pin < 0 || c.output_pin >= static_cast<int>(num_pins)) return std::nullopt;
    for (int ip : c.input_pins) {
      if (ip < 0 || ip >= static_cast<int>(num_pins)) return std::nullopt;
    }
  }
  try {
    design.validate();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  return DecodedDesign{std::move(spec), std::move(design)};
}

std::vector<std::uint8_t> encode_forest(const SteinerForest& forest) {
  ByteWriter w;
  w.u64(forest.net_to_tree.size());
  w.u32(static_cast<std::uint32_t>(forest.trees.size()));
  for (const SteinerTree& t : forest.trees) {
    w.i32(t.net);
    w.i32(t.driver_node);
    w.u32(static_cast<std::uint32_t>(t.nodes.size()));
    w.u32(static_cast<std::uint32_t>(t.edges.size()));
    for (const SteinerNode& n : t.nodes) {
      w.i32(n.pin);
      w.f64(n.pos.x);
      w.f64(n.pos.y);
    }
    for (const SteinerEdge& e : t.edges) {
      w.i32(e.a);
      w.i32(e.b);
    }
  }
  return w.take();
}

std::optional<SteinerForest> decode_forest(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  const std::uint64_t num_nets = r.u64();
  const std::uint32_t num_trees = r.u32();
  if (!r.ok() || num_nets > (1u << 30) || num_trees > num_nets) return std::nullopt;
  SteinerForest f;
  f.net_to_tree.assign(static_cast<std::size_t>(num_nets), -1);
  f.trees.reserve(num_trees);
  for (std::uint32_t ti = 0; ti < num_trees; ++ti) {
    SteinerTree tree;
    tree.net = r.i32();
    tree.driver_node = r.i32();
    const std::uint32_t num_nodes = r.u32();
    const std::uint32_t num_edges = r.u32();
    if (!r.ok() || tree.net < 0 || tree.net >= static_cast<int>(num_nets) ||
        num_nodes > r.remaining() || f.net_to_tree[static_cast<std::size_t>(tree.net)] != -1) {
      return std::nullopt;
    }
    tree.nodes.reserve(num_nodes);
    for (std::uint32_t n = 0; n < num_nodes; ++n) {
      SteinerNode node;
      node.pin = r.i32();
      node.pos.x = r.f64();
      node.pos.y = r.f64();
      if (!r.ok() || node.pin < -1 || !std::isfinite(node.pos.x) ||
          !std::isfinite(node.pos.y)) {
        return std::nullopt;
      }
      tree.nodes.push_back(node);
    }
    if (num_edges > r.remaining()) return std::nullopt;
    tree.edges.reserve(num_edges);
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      SteinerEdge edge;
      edge.a = r.i32();
      edge.b = r.i32();
      if (!r.ok() || edge.a < 0 || edge.b < 0 || edge.a >= static_cast<int>(num_nodes) ||
          edge.b >= static_cast<int>(num_nodes)) {
        return std::nullopt;
      }
      tree.edges.push_back(edge);
    }
    if (!tree.is_valid_tree()) return std::nullopt;
    f.net_to_tree[static_cast<std::size_t>(tree.net)] = static_cast<int>(f.trees.size());
    f.trees.push_back(std::move(tree));
  }
  if (!r.done()) return std::nullopt;
  f.build_movable_index();
  return f;
}

}  // namespace tsteiner::db
