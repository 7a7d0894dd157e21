// chip_random and chip_walk: full-chip estimation on the warm s13207 plan
// (7951 gates, 700 sources) at d25s / 300 K on one engine thread.
//
//   chip_random  one op = 32 fresh random vectors through
//                engine::BatchRunner::runPatterns (the paper's Fig. 12
//                random-vector averaging).
//   chip_walk    one op = a 256-step walk flipping 1-3 random source bits
//                per step, through EstimationPlan::estimateDelta on one
//                warm workspace (activity-trace shape).
//
// Checks: sampled results are bit-identical to a full estimate on a fresh
// workspace; every runPatterns total is finite, positive and the
// gate-order sum of its per-gate decompositions; after the measured phase
// four sampled vectors are solved by core::GoldenSolver, which gives
// est_err_pct and must lie within the 6.5% band paper_claims_test uses.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/golden.h"
#include "engine/batch_runner.h"
#include "logic/logic_sim.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"

namespace leakbench {
namespace {

constexpr const char* kCircuit = "s13207";
constexpr const char* kFlavour = "d25s";
constexpr double kTemperatureK = 300.0;
constexpr std::size_t kBatchVectors = 32;
constexpr std::size_t kWalkSteps = 256;
/// chip_walk samples one step of every kWalkSampleEvery ops for the
/// bit-identity check (a fresh full estimate costs ~25 walk steps).
constexpr std::size_t kWalkSampleEvery = 8;
constexpr std::size_t kGoldenVectors = 4;

/// Wall time of each setup stage, for the traced run.
struct StageTimes {
  double build_s = 0.0;
  double char_s = 0.0;
  double compile_s = 0.0;
};

/// The warm estimation stack both chip workloads run on.
struct Chip {
  explicit Chip(StageTimes& t)
      : tech(cornerTechnology(kFlavour, kTemperatureK)),
        netlist(addTime(t.build_s,
                      [] { return scenario::buildCircuit(kCircuit); })),
        runner(engine::BatchOptions{.threads = 1}),
        library(addTime(t.char_s,
                      [&] {
                        return runner.cache().library(
                            tech, core::estimationKinds(netlist),
                            scenarioCharOptions());
                      })),
        plan(addTime(t.compile_s,
                   [&] { return core::EstimationPlan(netlist, library); })) {}

  std::size_t sources() const { return plan.sourceCount(); }

  const device::Technology tech;
  const logic::LogicNetlist netlist;
  engine::BatchRunner runner;
  const core::LeakageLibrary library;
  const core::EstimationPlan plan;
};

/// One result kept for the after-phase checks.
struct Sample {
  std::size_t op = 0;
  std::vector<bool> pattern;
  std::uint64_t digest = 0;
  double total = 0.0;
};

Sample makeSample(std::size_t op, const std::vector<bool>& pattern,
                  const core::EstimateResult& result) {
  return {op, pattern, digest(result), result.total.total()};
}

/// The bit-identity check: a full estimate of the sample's vector on a
/// fresh workspace must reproduce the sampled result exactly.
bool matchesFreshEstimate(const core::EstimationPlan& plan,
                          const Sample& sample) {
  core::EstimationWorkspace ws(plan);
  return digest(plan.estimate(sample.pattern, ws)) == sample.digest;
}

void checkSamples(const Chip& chip, const std::vector<Sample>& samples,
                  OpLedger& ledger) {
  for (const Sample& s : samples) {
    if (!matchesFreshEstimate(chip.plan, s)) {
      ledger.mismatch(s.op, "result differs from a fresh full estimate");
    }
  }
}

/// Golden-solves the first kGoldenVectors samples; returns the mean
/// |error| in percent and records the worst in `worst_pct`.
double goldenError(const Chip& chip, const std::vector<Sample>& samples,
                   OpLedger& ledger, double& worst_pct) {
  core::GoldenSolver golden(chip.netlist, chip.tech);
  std::vector<double> errors;
  for (std::size_t i = 0; i < samples.size() && i < kGoldenVectors; ++i) {
    const double g = golden.solve(samples[i].pattern).total.total();
    const double err = errorPct(samples[i].total, g);
    if (!(err < kGoldenBandPct)) {
      ledger.mismatch(samples[i].op, "estimate off golden by " +
                                         std::to_string(err) + "%");
    }
    errors.push_back(err);
    worst_pct = std::max(worst_pct, err);
  }
  if (errors.empty()) {
    ledger.runCheckFailed("no vector was golden-solved");
  }
  return mean(errors);
}

void fillPatterns(std::vector<std::vector<bool>>& patterns, std::size_t bits,
                  Rng& rng) {
  for (std::vector<bool>& p : patterns) {
    p = logic::randomPattern(bits, rng);
  }
}

// --- chip_random ----------------------------------------------------------

struct RandomState {
  explicit RandomState(std::uint64_t seed, StageTimes& t)
      : chip(t), inputs(nanoleak::deriveStreamSeed(seed, 1)),
        sampler(nanoleak::deriveStreamSeed(seed, 2)),
        patterns(kBatchVectors) {
    // Untimed warm-up op (pool workspaces, first-touch pages).
    Rng warm(nanoleak::deriveStreamSeed(seed, 0));
    fillPatterns(patterns, chip.sources(), warm);
    results = chip.runner.runPatterns(chip.plan, patterns);
  }

  Chip chip;
  Rng inputs;
  Rng sampler;
  std::vector<std::vector<bool>> patterns;
  std::vector<core::EstimateResult> results;
};

/// Per-layer accumulators of the traced chip_random phase.
struct RandomTrace {
  double op_s = 0.0;
  double run_patterns_s = 0.0;
  double sim_s = 0.0;
  double estimate_s = 0.0;
  std::size_t ops = 0;
  obs::Snapshot counters;
};

/// One chip_random op: fresh vectors, then runPatterns. Returns its
/// latency; with `trace`, also times the call and replays the vectors
/// through the simulator and the full estimate outside the latency.
double randomOp(RandomState& st, RandomTrace* trace) {
  const obs::Snapshot before = trace ? obs::snapshot() : obs::Snapshot{};
  const Clock::time_point start = Clock::now();
  fillPatterns(st.patterns, st.chip.sources(), st.inputs);
  const Clock::time_point call = Clock::now();
  st.results = st.chip.runner.runPatterns(st.chip.plan, st.patterns);
  const double latency = secondsSince(start);
  if (trace != nullptr) {
    trace->run_patterns_s += secondsSince(call);
    trace->op_s += latency;
    ++trace->ops;
    addCounterDeltas(before, trace->counters);
    const logic::LogicSimulator sim(st.chip.netlist);
    std::vector<bool> values;
    Clock::time_point t = Clock::now();
    for (const std::vector<bool>& p : st.patterns) {
      sim.simulateInto(p, values);
    }
    trace->sim_s += secondsSince(t);
    core::EstimationWorkspace ws(st.chip.plan);
    core::EstimateResult out;
    st.chip.plan.estimate(st.patterns.front(), ws, out);  // warm buffers
    t = Clock::now();
    for (const std::vector<bool>& p : st.patterns) {
      st.chip.plan.estimate(p, ws, out);
    }
    trace->estimate_s += secondsSince(t);
  }
  return latency;
}

/// Inline checks of one op's results; keeps one sampled result.
void checkRandomOp(RandomState& st, std::size_t op, OpLedger& ledger,
                   std::vector<Sample>& samples) {
  for (const core::EstimateResult& r : st.results) {
    if (!totalIsConsistent(r)) {
      ledger.mismatch(op, "total is not the finite positive per-gate sum");
      break;
    }
  }
  const std::size_t k = st.sampler.uniformInt(kBatchVectors);
  samples.push_back(makeSample(op, st.patterns[k], st.results[k]));
}

// --- chip_walk ------------------------------------------------------------

struct WalkState {
  explicit WalkState(std::uint64_t seed, StageTimes& t)
      : chip(t), inputs(nanoleak::deriveStreamSeed(seed, 1)),
        sampler(nanoleak::deriveStreamSeed(seed, 2)), ws(chip.plan) {
    Rng warm(nanoleak::deriveStreamSeed(seed, 0));
    current = logic::randomPattern(chip.sources(), warm);
    // Untimed warm-up op: one full walk from a cold workspace.
    for (std::size_t s = 0; s < kWalkSteps; ++s) {
      step(warm, nullptr);
    }
  }

  /// Flips 1-3 random source bits (recording their positions when asked)
  /// and re-estimates incrementally.
  void step(Rng& rng, std::vector<std::size_t>* flipped) {
    const std::size_t flips = 1 + rng.uniformInt(3);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.uniformInt(chip.sources());
      current[bit] = !current[bit];
      if (flipped != nullptr) {
        flipped->push_back(bit);
      }
    }
    chip.plan.estimateDelta(current, ws, result);
  }

  Chip chip;
  Rng inputs;
  Rng sampler;
  core::EstimationWorkspace ws;
  core::EstimateResult result;
  std::vector<bool> current;
};

/// Per-layer accumulators of the traced chip_walk phase.
struct WalkTrace {
  explicit WalkTrace(const WalkState& st)
      : sim(st.chip.netlist), replay_sources(st.current),
        replay_values(sim.simulate(st.current)) {}

  double op_s = 0.0;
  double delta_s = 0.0;
  double sim_delta_s = 0.0;
  std::size_t ops = 0;
  obs::Snapshot counters;
  // Replay of the walk through the logic simulator alone.
  logic::LogicSimulator sim;
  std::vector<bool> replay_sources;
  std::vector<bool> replay_values;
  std::vector<logic::GateId> dirty;
  std::vector<logic::NetId> changed;
  logic::DeltaSimScratch scratch;
};

/// One chip_walk op. The clock pauses while step `sample_step` is copied
/// into `sample` (when non-null).
double walkOp(WalkState& st, std::size_t sample_step, Sample* sample,
              WalkTrace* trace) {
  const obs::Snapshot before = trace ? obs::snapshot() : obs::Snapshot{};
  std::vector<std::vector<std::size_t>> flips(trace ? kWalkSteps : 0);
  double latency = 0.0;
  Clock::time_point segment = Clock::now();
  for (std::size_t s = 0; s < kWalkSteps; ++s) {
    if (trace != nullptr) {
      const Clock::time_point t = Clock::now();
      st.step(st.inputs, &flips[s]);
      trace->delta_s += secondsSince(t);
    } else {
      st.step(st.inputs, nullptr);
    }
    if (sample != nullptr && s == sample_step) {
      latency += secondsSince(segment);
      *sample = makeSample(0, st.current, st.result);
      segment = Clock::now();
    }
  }
  latency += secondsSince(segment);
  if (trace != nullptr) {
    trace->op_s += latency;
    ++trace->ops;
    addCounterDeltas(before, trace->counters);
    const Clock::time_point t = Clock::now();
    for (const std::vector<std::size_t>& step : flips) {
      for (const std::size_t bit : step) {
        trace->replay_sources[bit] = !trace->replay_sources[bit];
      }
      trace->sim.simulateDelta(trace->replay_sources, trace->replay_values,
                               trace->dirty, trace->changed, trace->scratch);
    }
    trace->sim_delta_s += secondsSince(t);
  }
  return latency;
}

double perOp(const obs::Snapshot& counters, const char* name,
             std::size_t ops) {
  return static_cast<double>(counters.counterValue(name)) /
         static_cast<double>(ops);
}

void addSetupLayers(const std::vector<StageTimes>& stages,
                    LayerValues& layers) {
  std::vector<double> build, chars, compile;
  for (const StageTimes& s : stages) {
    build.push_back(s.build_s);
    chars.push_back(s.char_s);
    compile.push_back(s.compile_s);
  }
  layers["logic.build_ms"] = 1e3 * median(build);
  layers["core.char_s_per_corner"] = median(chars);
  layers["core.plan_compile_ms"] = 1e3 * median(compile);
}

}  // namespace

Report runChipRandom(const Config& config) {
  Report report;
  OpLedger ledger;
  std::vector<StageTimes> stages;
  std::unique_ptr<RandomState> st = setUp(
      [&] {
        stages.emplace_back();
        return std::make_unique<RandomState>(config.seed, stages.back());
      },
      report.setup_s);

  std::vector<Sample> samples;
  const auto untracedOp = [&] {
    const std::size_t op = ledger.begin();
    const double latency = randomOp(*st, nullptr);
    checkRandomOp(*st, op, ledger, samples);
    return latency;
  };
  const double gates = static_cast<double>(st->chip.plan.gateCount());
  if (!config.trace) {
    const Phase phase = runPhase(config.seconds, 1, untracedOp);
    report.throughput_per_s = phase.throughput();
    report.latency_p50_ms = 1e3 * median(phase.latency_s);
  } else {
    const Phase untraced = runPhase(config.seconds / 2, 1, untracedOp);
    RandomTrace trace;
    const Phase traced = runPhase(config.seconds / 2, 1, [&] {
      const std::size_t op = ledger.begin();
      const double latency = randomOp(*st, &trace);
      checkRandomOp(*st, op, ledger, samples);
      return latency;
    });
    const double evals =
        static_cast<double>(trace.ops * kBatchVectors) * gates;
    LayerValues& l = report.layers;
    addSetupLayers(stages, l);
    l["logic.sim_ns_per_gate"] = 1e9 * trace.sim_s / evals;
    l["core.estimate_ns_per_gate"] = 1e9 * trace.estimate_s / evals;
    l["core.propagate_ns_per_gate"] =
        1e9 * (trace.estimate_s - trace.sim_s) / evals;
    l["core.delta_fallback_full_per_op"] =
        perOp(trace.counters, "estimate.fallback_full", trace.ops);
    l["core.delta_incremental_per_op"] =
        perOp(trace.counters, "estimate.incremental", trace.ops);
    l["engine.run_patterns_ms"] =
        1e3 * trace.run_patterns_s / static_cast<double>(trace.ops);
    l["op.unattributed_pct"] =
        100.0 * (trace.op_s - trace.run_patterns_s) / trace.op_s;
    l["obs.trace_overhead_pct"] = traceOverheadPct(untraced, traced);
  }

  report.peak_rss_mb = peakRssMb();
  checkSamples(st->chip, samples, ledger);
  double worst = 0.0;
  report.est_err_pct = goldenError(st->chip, samples, ledger, worst);
  report.layers["core.est_err_max_pct"] = worst;
  finish(ledger, report);
  return report;
}

Report runChipWalk(const Config& config) {
  Report report;
  OpLedger ledger;
  std::vector<StageTimes> stages;
  std::unique_ptr<WalkState> st = setUp(
      [&] {
        stages.emplace_back();
        return std::make_unique<WalkState>(config.seed, stages.back());
      },
      report.setup_s);

  std::vector<Sample> samples;
  std::unique_ptr<WalkTrace> trace;
  const auto op = [&] {
    const std::size_t index = ledger.begin();
    const bool sampled = index % kWalkSampleEvery == 0;
    const std::size_t sample_step = st->sampler.uniformInt(kWalkSteps);
    Sample sample;
    const double latency = walkOp(*st, sample_step,
                                  sampled ? &sample : nullptr, trace.get());
    if (sampled) {
      sample.op = index;
      samples.push_back(std::move(sample));
    }
    return latency;
  };
  if (!config.trace) {
    const Phase phase = runPhase(config.seconds, 1, op);
    report.throughput_per_s = phase.throughput();
    report.latency_p50_ms = 1e3 * median(phase.latency_s);
  } else {
    const Phase untraced = runPhase(config.seconds / 2, 1, op);
    trace = std::make_unique<WalkTrace>(*st);
    const Phase traced = runPhase(config.seconds / 2, 1, op);
    const double steps = static_cast<double>(trace->ops * kWalkSteps);
    LayerValues& l = report.layers;
    addSetupLayers(stages, l);
    l["core.delta_us_per_step"] = 1e6 * trace->delta_s / steps;
    l["logic.delta_us_per_step"] = 1e6 * trace->sim_delta_s / steps;
    l["core.delta_fallback_full_per_op"] =
        perOp(trace->counters, "estimate.fallback_full", trace->ops);
    l["core.delta_incremental_per_op"] =
        perOp(trace->counters, "estimate.incremental", trace->ops);
    l["op.unattributed_pct"] =
        100.0 * (trace->op_s - trace->delta_s) / trace->op_s;
    l["obs.trace_overhead_pct"] = traceOverheadPct(untraced, traced);
  }

  report.peak_rss_mb = peakRssMb();
  checkSamples(st->chip, samples, ledger);
  double worst = 0.0;
  report.est_err_pct = goldenError(st->chip, samples, ledger, worst);
  report.layers["core.est_err_max_pct"] = worst;
  finish(ledger, report);
  return report;
}

bool selfCheckChipRandom() {
  StageTimes t;
  RandomState st(1, t);
  OpLedger ledger;
  std::vector<Sample> samples;
  randomOp(st, nullptr);
  checkRandomOp(st, ledger.begin(), ledger, samples);
  checkSamples(st.chip, samples, ledger);
  const bool clean_passed = ledger.failed() == 0;
  // One result of the same op, scaled by 1 + 1e-3.
  core::EstimateResult wrong = st.results.front();
  for (core::GateEstimate& g : wrong.per_gate) {
    g.leakage.subthreshold *= 1.0 + 1e-3;
    g.leakage.gate *= 1.0 + 1e-3;
    g.leakage.btbt *= 1.0 + 1e-3;
  }
  wrong.total.subthreshold *= 1.0 + 1e-3;
  wrong.total.gate *= 1.0 + 1e-3;
  wrong.total.btbt *= 1.0 + 1e-3;
  samples = {makeSample(ledger.begin(), st.patterns.front(), wrong)};
  checkSamples(st.chip, samples, ledger);
  return clean_passed && ledger.failed() == 1;
}

bool selfCheckChipWalk() {
  StageTimes t;
  WalkState st(1, t);
  OpLedger ledger;
  std::vector<Sample> samples(1);
  walkOp(st, kWalkSteps - 1, &samples.front(), nullptr);
  samples.front().op = ledger.begin();
  checkSamples(st.chip, samples, ledger);
  const bool clean_passed = ledger.failed() == 0;
  // The same step with one result bit flipped.
  core::EstimateResult wrong = st.result;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &wrong.per_gate[1].leakage.gate, sizeof bits);
  bits ^= 1;
  std::memcpy(&wrong.per_gate[1].leakage.gate, &bits, sizeof bits);
  samples = {makeSample(ledger.begin(), st.current, wrong)};
  checkSamples(st.chip, samples, ledger);
  return clean_passed && ledger.failed() == 1;
}

}  // namespace leakbench
