// Two-valued logic simulation over a LogicNetlist ("propagate logic value
// from primary inputs to primary outputs, for input pattern I" in the
// paper's Fig. 13 flow).
//
// The simulator compiles the netlist once into flat per-gate arrays in
// topological order (truth table, input nets, output net). simulateBlock()
// evaluates up to 64 patterns at a time as one 64-bit word per net -
// classic parallel-pattern simulation, the shape of the paper's Fig. 12
// random-vector averaging. simulate()/simulateInto() are its one-lane
// case. simulateDelta() is the event-driven walk path: it re-simulates
// only the fanout cone of the source bits that changed - the building
// block of the estimation plan's incremental re-estimation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "logic/logic_netlist.h"
#include "util/rng.h"

namespace nanoleak::logic {

/// Reusable scratch for LogicSimulator::simulateDelta (one per caller;
/// not shared between threads).
struct DeltaSimScratch {
  /// Per-gate "already queued" flags; maintained by simulateDelta.
  std::vector<char> queued;
  /// Min-heap of (topological position, gate) pending evaluation.
  std::vector<std::pair<std::size_t, GateId>> heap;
};

/// Caches the compiled, topologically ordered netlist and evaluates input
/// patterns.
class LogicSimulator {
 public:
  /// Patterns per simulateBlock() call: one per bit of a word.
  static constexpr std::size_t kBlockLanes = 64;

  explicit LogicSimulator(const LogicNetlist& netlist);

  /// Values for every net given values for the source nets (primary inputs
  /// followed by DFF outputs, see LogicNetlist::sourceNets()).
  std::vector<bool> simulate(const std::vector<bool>& source_values) const;

  /// Like simulate(), but writes into a caller-owned buffer (resized to
  /// netCount()). Allocates its one-lane block words per call; the hot
  /// estimation path calls simulateBlock() on workspace-owned words.
  void simulateInto(const std::vector<bool>& source_values,
                    std::vector<bool>& values) const;

  /// Bit-parallel simulation of up to 64 patterns. Bit k of
  /// `source_words[i]` is source i's value in pattern (lane) k; on return
  /// bit k of `net_words[n]` is net n's value in pattern k (the buffer is
  /// resized to netCount(); undriven nets read 0). Lanes are independent:
  /// lane k equals simulate() of pattern k.
  void simulateBlock(std::span<const std::uint64_t> source_words,
                     std::vector<std::uint64_t>& net_words) const;

  /// Event-driven incremental re-simulation. `values` must hold this
  /// netlist's per-net values for some earlier source pattern (as produced
  /// by simulate()/simulateInto()); it is updated in place to match
  /// `source_values`, evaluating only gates reachable from the flipped
  /// source bits. Outputs (cleared first):
  ///  - `dirty_gates`: every gate at least one of whose input values
  ///    changed, in topological order (these are exactly the gates whose
  ///    input vector index changed);
  ///  - `changed_nets`: every net whose value flipped, each listed once.
  void simulateDelta(const std::vector<bool>& source_values,
                     std::vector<bool>& values,
                     std::vector<GateId>& dirty_gates,
                     std::vector<NetId>& changed_nets,
                     DeltaSimScratch& scratch) const;

  /// Number of source values simulate() expects.
  std::size_t sourceCount() const { return sources_.size(); }

  const std::vector<GateId>& order() const { return order_; }

  /// Position of a gate in order() (inverse permutation).
  std::size_t topoPosition(GateId gate) const { return topo_position_[gate]; }

 private:
  void checkSourceCount(std::size_t got) const;
  /// Output of the gate at topological position `pos` for the single
  /// pattern held in `values`.
  bool evaluateAt(std::size_t pos, const std::vector<bool>& values) const;

  const LogicNetlist& netlist_;
  std::vector<GateId> order_;
  std::vector<std::size_t> topo_position_;
  std::vector<NetId> sources_;

  // Compiled gates, indexed by topological position: truth table
  // (gates::truthTable), output net, and the input nets in CSR form
  // [input_offset_[pos], input_offset_[pos + 1]).
  std::vector<std::uint16_t> truth_;
  std::vector<NetId> output_net_;
  std::vector<std::size_t> input_offset_;
  std::vector<NetId> input_net_;
};

/// Draws a uniform random source pattern.
std::vector<bool> randomPattern(std::size_t bits, Rng& rng);

}  // namespace nanoleak::logic
