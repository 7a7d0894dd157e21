#include "logic/logic_sim.h"

#include <algorithm>
#include <array>
#include <functional>
#include <string>

#include "util/error.h"

namespace nanoleak::logic {

namespace {

constexpr std::size_t kMaxPins =
    static_cast<std::size_t>(gates::kMaxTruthTablePins);

/// One gate over 64 lanes: Shannon expansion of `table` on its input
/// words, folding out pin 0 first. rows[v] starts as the all-lanes value
/// of truth-table row v; each fold halves the rows by muxing row pairs on
/// one pin's word, leaving the output word in rows[0].
std::uint64_t evaluateWord(std::uint16_t table, const std::uint64_t* inputs,
                           std::size_t pins) {
  std::array<std::uint64_t, std::size_t{1} << kMaxPins> rows{};
  std::size_t count = std::size_t{1} << pins;
  for (std::size_t v = 0; v < count; ++v) {
    rows[v] = std::uint64_t{0} - ((table >> v) & 1u);
  }
  for (std::size_t pin = 0; pin < pins; ++pin) {
    const std::uint64_t x = inputs[pin];
    count >>= 1;
    for (std::size_t v = 0; v < count; ++v) {
      rows[v] = (x & rows[2 * v + 1]) | (~x & rows[2 * v]);
    }
  }
  return rows[0];
}

}  // namespace

LogicSimulator::LogicSimulator(const LogicNetlist& netlist)
    : netlist_(netlist),
      order_(netlist.topologicalOrder()),
      sources_(netlist.sourceNets()) {
  topo_position_.resize(netlist.gateCount());
  truth_.resize(order_.size());
  output_net_.resize(order_.size());
  input_offset_.assign(order_.size() + 1, 0);
  for (std::size_t pos = 0; pos < order_.size(); ++pos) {
    const Gate& gate = netlist.gate(order_[pos]);
    require(gate.inputs.size() <= kMaxPins,
            "LogicSimulator: gate arity too large");
    topo_position_[order_[pos]] = pos;
    truth_[pos] = gates::truthTable(gate.kind);
    output_net_[pos] = gate.output;
    input_offset_[pos + 1] = input_offset_[pos] + gate.inputs.size();
    input_net_.insert(input_net_.end(), gate.inputs.begin(),
                      gate.inputs.end());
  }
}

void LogicSimulator::checkSourceCount(std::size_t got) const {
  if (got != sources_.size()) {
    throw Error("LogicSimulator: expected " + std::to_string(sources_.size()) +
                " source values, got " + std::to_string(got));
  }
}

std::vector<bool> LogicSimulator::simulate(
    const std::vector<bool>& source_values) const {
  std::vector<bool> values;
  simulateInto(source_values, values);
  return values;
}

void LogicSimulator::simulateInto(const std::vector<bool>& source_values,
                                  std::vector<bool>& values) const {
  checkSourceCount(source_values.size());
  // The one-lane case of simulateBlock.
  std::vector<std::uint64_t> source_words(sources_.size());
  std::vector<std::uint64_t> net_words;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    source_words[i] = source_values[i] ? 1 : 0;
  }
  simulateBlock(source_words, net_words);
  values.resize(net_words.size());
  for (std::size_t net = 0; net < net_words.size(); ++net) {
    values[net] = (net_words[net] & 1) != 0;
  }
}

void LogicSimulator::simulateBlock(
    std::span<const std::uint64_t> source_words,
    std::vector<std::uint64_t>& net_words) const {
  checkSourceCount(source_words.size());
  net_words.assign(netlist_.netCount(), 0);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    net_words[sources_[i]] = source_words[i];
  }
  std::array<std::uint64_t, kMaxPins> pin_words{};
  for (std::size_t pos = 0; pos < truth_.size(); ++pos) {
    const std::size_t begin = input_offset_[pos];
    const std::size_t pins = input_offset_[pos + 1] - begin;
    for (std::size_t pin = 0; pin < pins; ++pin) {
      pin_words[pin] = net_words[input_net_[begin + pin]];
    }
    net_words[output_net_[pos]] =
        evaluateWord(truth_[pos], pin_words.data(), pins);
  }
}

bool LogicSimulator::evaluateAt(std::size_t pos,
                                const std::vector<bool>& values) const {
  unsigned vector = 0;
  for (std::size_t k = input_offset_[pos]; k < input_offset_[pos + 1]; ++k) {
    vector |= static_cast<unsigned>(values[input_net_[k]])
              << (k - input_offset_[pos]);
  }
  return ((truth_[pos] >> vector) & 1u) != 0;
}

void LogicSimulator::simulateDelta(const std::vector<bool>& source_values,
                                   std::vector<bool>& values,
                                   std::vector<GateId>& dirty_gates,
                                   std::vector<NetId>& changed_nets,
                                   DeltaSimScratch& scratch) const {
  checkSourceCount(source_values.size());
  require(values.size() == netlist_.netCount(),
          "LogicSimulator::simulateDelta: values buffer must hold a previous "
          "simulation result");
  dirty_gates.clear();
  changed_nets.clear();
  if (scratch.queued.size() != netlist_.gateCount()) {
    scratch.queued.assign(netlist_.gateCount(), 0);
  }
  scratch.heap.clear();

  const auto enqueue = [&](GateId g) {
    if (scratch.queued[g]) {
      return;
    }
    scratch.queued[g] = 1;
    scratch.heap.emplace_back(topo_position_[g], g);
    std::push_heap(scratch.heap.begin(), scratch.heap.end(),
                   std::greater<>{});
  };

  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const NetId net = sources_[i];
    if (values[net] == source_values[i]) {
      continue;
    }
    values[net] = source_values[i];
    changed_nets.push_back(net);
    for (const PinRef& pin : netlist_.fanout(net)) {
      enqueue(pin.gate);
    }
  }

  // Gates pop in ascending topological position; a gate's inputs can only
  // be flipped by strictly earlier gates, so each dirty gate is evaluated
  // exactly once, on final input values.
  while (!scratch.heap.empty()) {
    std::pop_heap(scratch.heap.begin(), scratch.heap.end(),
                  std::greater<>{});
    const auto [pos, g] = scratch.heap.back();
    scratch.heap.pop_back();
    dirty_gates.push_back(g);
    const bool output = evaluateAt(pos, values);
    const NetId out = output_net_[pos];
    if (output == values[out]) {
      continue;
    }
    values[out] = output;
    changed_nets.push_back(out);
    for (const PinRef& pin : netlist_.fanout(out)) {
      enqueue(pin.gate);
    }
  }

  for (GateId g : dirty_gates) {
    scratch.queued[g] = 0;
  }
}

std::vector<bool> randomPattern(std::size_t bits, Rng& rng) {
  std::vector<bool> pattern(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    pattern[i] = rng.bernoulli(0.5);
  }
  return pattern;
}

}  // namespace nanoleak::logic
