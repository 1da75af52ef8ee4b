// Netlist data model: cells, pins, nets, ports, and the timing-graph
// topology queries used by STA, feature extraction and the benches.
//
// Conventions:
//  * Every net has exactly one driver pin (a cell output, or a primary
//    input port) and zero or more sink pins.
//  * The clock is ideal: register CK pins are not modeled; a register's D
//    pin is a timing endpoint and its Q pin a timing startpoint.
//  * Pin positions equal their owner cell's placed position (ports carry
//    their own position on the die boundary). Cell geometry is a single
//    site; this matches the granularity at which Steiner trees see pins.
#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "netlist/liberty.hpp"
#include "util/geometry.hpp"

namespace tsteiner {

enum class PinDir { kInput, kOutput };

/// What the pin is attached to.
enum class PinKind {
  kCellInput,     ///< input pin of a cell (D pin for registers)
  kCellOutput,    ///< output pin of a cell (Q pin for registers)
  kPrimaryInput,  ///< design port driving a net
  kPrimaryOutput  ///< design port sinking a net
};

struct Pin {
  int id = -1;
  PinKind kind = PinKind::kCellInput;
  int cell = -1;            ///< owner cell, or -1 for ports
  int net = -1;             ///< connected net, or -1 while unconnected
  int input_slot = -1;      ///< which input of the cell (kCellInput only)
  PointI port_pos;          ///< position for ports (cells carry their own)

  bool is_output() const {
    return kind == PinKind::kCellOutput || kind == PinKind::kPrimaryInput;
  }
};

struct Cell {
  int id = -1;
  int type = -1;  ///< CellLibrary type id
  PointI pos;
  std::vector<int> input_pins;
  int output_pin = -1;
  std::string name;
};

struct Net {
  int id = -1;
  int driver_pin = -1;
  std::vector<int> sink_pins;
  std::string name;

  int degree() const { return 1 + static_cast<int>(sink_pins.size()); }
};

/// Aggregate counts reported in Table I.
struct DesignStats {
  long long num_cells = 0;
  long long num_net_edges = 0;   ///< driver->sink pairs over all nets
  long long num_cell_edges = 0;  ///< input-pin -> output-pin arcs over all cells
  long long num_endpoints = 0;   ///< register D pins + primary outputs
};

/// Defined by the snapshot codec (src/db/codecs.cpp): restores a Design's
/// object vectors verbatim, bypassing the incremental construction API so
/// pin/net/cell ids round-trip bit-exactly. Restorers must call validate().
struct DesignSnapshotAccess;

class Design {
 public:
  Design(std::string name, const CellLibrary* library)
      : name_(std::move(name)), library_(library) {
    assert(library != nullptr);
  }

  // -- construction -------------------------------------------------------
  int add_cell(int type_id, const std::string& name = {});
  int add_primary_input(PointI pos, const std::string& name = {});
  int add_primary_output(PointI pos, const std::string& name = {});
  /// Create a net driven by `driver_pin`; returns net id.
  int add_net(int driver_pin, const std::string& name = {});
  void connect_sink(int net_id, int sink_pin);
  /// Detach a sink from its net (used by netlist transformations such as
  /// buffer insertion). The pin becomes unconnected.
  void disconnect_sink(int net_id, int sink_pin);

  void set_die(RectI die) { die_ = die; }
  void set_clock_period(double ns) { clock_period_ns_ = ns; }

  // -- access --------------------------------------------------------------
  const std::string& name() const { return name_; }
  const CellLibrary& library() const { return *library_; }
  const RectI& die() const { return die_; }
  double clock_period() const { return clock_period_ns_; }

  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<Pin>& pins() const { return pins_; }
  const std::vector<Net>& nets() const { return nets_; }
  Cell& cell(int id) { return cells_[static_cast<std::size_t>(id)]; }
  const Cell& cell(int id) const { return cells_[static_cast<std::size_t>(id)]; }
  const Pin& pin(int id) const { return pins_[static_cast<std::size_t>(id)]; }
  const Net& net(int id) const { return nets_[static_cast<std::size_t>(id)]; }

  const CellType& cell_type(int cell_id) const {
    return library_->type(cell(cell_id).type);
  }
  bool is_register_cell(int cell_id) const { return cell_type(cell_id).is_register; }

  PointI pin_position(int pin_id) const {
    const Pin& p = pin(pin_id);
    return p.cell >= 0 ? cell(p.cell).pos : p.port_pos;
  }
  double pin_cap(int pin_id) const;

  /// Timing endpoints: register D pins and primary-output ports.
  std::vector<int> endpoint_pins() const;
  /// Required time (ns) at a timing endpoint: the clock period, minus the
  /// setup time at register D pins.
  double required_time(int endpoint_pin) const {
    const Pin& p = pin(endpoint_pin);
    double required = clock_period();
    if (p.kind == PinKind::kCellInput) required -= cell_type(p.cell).setup_ns;
    return required;
  }
  /// Timing startpoints: register Q pins and primary-input ports.
  std::vector<int> startpoint_pins() const;

  /// Combinational cells in topological order (registers excluded; their Q
  /// pins act as sources, D pins as sinks). Throws std::runtime_error on a
  /// combinational cycle.
  std::vector<int> combinational_topo_order() const;

  /// Pin-level topological levels for the full timing graph: level 0 for
  /// startpoints, sink level = driver level, comb output level =
  /// max(input levels) + 1.
  std::vector<int> pin_levels() const;

  DesignStats stats() const;

  /// Structural sanity: every net driven, pin/net cross references agree,
  /// no combinational cycle. Throws std::runtime_error with a description.
  void validate() const;

 private:
  friend struct DesignSnapshotAccess;

  int add_pin(Pin p);

  std::string name_;
  const CellLibrary* library_;
  std::vector<Cell> cells_;
  std::vector<Pin> pins_;
  std::vector<Net> nets_;
  RectI die_{{0, 0}, {1, 1}};
  double clock_period_ns_ = 1.0;
};

}  // namespace tsteiner
