// corner_signoff: one op signs off one (flavour, temperature) corner of
// s838 (446 gates, 66 sources) from a cold table cache on a 2-thread
// BatchRunner:
//   1. characterize the corner on the path scenario::Scenario defaults to;
//   2. compile the plan and estimate 64 random vectors (runPatterns);
//   3. golden-solve 4 of them, plus the isolated no-loading sum;
//   4. run a heuristic sleep-vector search.
// A Monte-Carlo population per corner is left out: its fixture solve fails
// to converge on some seeds (seen at d25g / 233 K), which would make the
// failed count depend on the seed; see README.md.
// Ops cycle through the corners below in whole rounds, so every run
// measures the same corner mix.
//
// Checks per op: the corner's estimate lies within 6.5% of GoldenSolver
// on the golden-solved vectors; golden gate + BTBT leakage lies below the
// isolated no-loading sum (the paper's loading-effect direction); the
// sleep vector's reported leakage equals a fresh estimate of that vector;
// a sampled runPatterns result is bit-identical to a fresh full estimate;
// every total is the finite positive per-gate sum.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "circuit/solver_stats.h"
#include "core/golden.h"
#include "engine/batch_runner.h"
#include "logic/logic_sim.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "search/optimizer.h"

namespace leakbench {
namespace {

constexpr const char* kCircuit = "s838";
constexpr int kThreads = 2;
constexpr std::size_t kVectors = 64;
constexpr std::size_t kGoldenVectors = 4;

struct Corner {
  const char* flavour;
  double temperature_k;
};

/// The sign-off corners, flavour-major. d25s at 398 K is left out: its
/// mean estimator error (-5.9% over 80 vectors, sd 0.65%) sits so close to
/// the 6.5% band that a 4-vector sample crosses it on some seeds, which
/// would make the failed count depend on the seed (see README.md).
const std::vector<Corner>& corners() {
  static const std::vector<Corner> list = {
      {"d25s", 233.0},  {"d25s", 300.0},  {"d25s", 360.0},
      {"d25g", 233.0},  {"d25g", 300.0},  {"d25g", 360.0},
      {"d25g", 398.0},  {"d25jn", 233.0}, {"d25jn", 300.0},
      {"d25jn", 360.0}, {"d25jn", 398.0},
  };
  return list;
}

/// Stage times and solver work of sign-offs (summed over the traced ops).
struct SignoffTrace {
  double char_s = 0.0;
  double compile_s = 0.0;
  double run_patterns_s = 0.0;
  double golden_s = 0.0;
  double isolated_s = 0.0;
  double search_s = 0.0;
  std::uint64_t char_node_solves = 0;
  std::uint64_t golden_node_solves = 0;
  obs::Snapshot counters;
};

/// Everything one sign-off produces, kept for the checks.
struct Signoff {
  device::Technology tech;
  std::unique_ptr<const core::LeakageLibrary> library;
  std::unique_ptr<const core::EstimationPlan> plan;
  std::vector<std::vector<bool>> patterns;
  std::vector<core::EstimateResult> estimates;
  std::vector<device::LeakageBreakdown> golden;
  std::vector<device::LeakageBreakdown> isolated;
  search::SearchResult sleep;
};

struct SignoffState {
  explicit SignoffState(std::uint64_t seed, double& build_s)
      : netlist(addTime(build_s,
                        [] { return scenario::buildCircuit(kCircuit); })),
        runner(engine::BatchOptions{.threads = kThreads}),
        inputs(nanoleak::deriveStreamSeed(seed, 1)),
        sampler(nanoleak::deriveStreamSeed(seed, 2)) {
    // Untimed warm-up op on the first corner.
    Rng warm(nanoleak::deriveStreamSeed(seed, 0));
    SignoffTrace unused;
    signoff(corners().front(), warm, unused);
  }

  /// One corner sign-off from a cold table cache; adds its stage times
  /// and node solves to `t`.
  Signoff signoff(const Corner& corner, Rng& rng, SignoffTrace& t) {
    Signoff out;
    out.tech = cornerTechnology(corner.flavour, corner.temperature_k);
    runner.cache().clear();
    const circuit::SolveStats solves0 = circuit::solveStats();
    addTime(t.char_s, [&] {
      out.library = std::make_unique<const core::LeakageLibrary>(
          runner.cache().library(out.tech, core::estimationKinds(netlist),
                                 scenarioCharOptions()));
    });
    const circuit::SolveStats solves1 = circuit::solveStats();
    addTime(t.compile_s, [&] {
      out.plan =
          std::make_unique<const core::EstimationPlan>(netlist, *out.library);
    });
    for (std::size_t i = 0; i < kVectors; ++i) {
      out.patterns.push_back(logic::randomPattern(out.plan->sourceCount(), rng));
    }
    addTime(t.run_patterns_s,
          [&] { out.estimates = runner.runPatterns(*out.plan, out.patterns); });
    const circuit::SolveStats solves2 = circuit::solveStats();
    addTime(t.golden_s, [&] {
      core::GoldenSolver solver(netlist, out.tech);
      for (std::size_t i = 0; i < kGoldenVectors; ++i) {
        out.golden.push_back(solver.solve(out.patterns[i]).total);
      }
    });
    const circuit::SolveStats solves3 = circuit::solveStats();
    addTime(t.isolated_s, [&] {
      for (std::size_t i = 0; i < kGoldenVectors; ++i) {
        out.isolated.push_back(
            core::isolatedSumLeakage(netlist, out.tech, out.patterns[i]));
      }
    });
    addTime(t.search_s, [&] {
      search::SearchOptions options;
      options.objective = search::Objective::kMin;
      options.algorithm = search::Algorithm::kHeuristic;
      options.seed = rng.next();
      out.sleep = search::optimizeVector(*out.plan, options);
    });
    t.char_node_solves += solves1.node_solves - solves0.node_solves;
    t.golden_node_solves += solves3.node_solves - solves2.node_solves;
    return out;
  }

  const logic::LogicNetlist netlist;
  engine::BatchRunner runner;
  Rng inputs;
  Rng sampler;
};

bool sameBreakdown(const device::LeakageBreakdown& a,
                   const device::LeakageBreakdown& b) {
  return a.subthreshold == b.subthreshold && a.gate == b.gate &&
         a.btbt == b.btbt;
}

/// Checks one sign-off; returns the first failure, or "" when correct.
/// `sampled` indexes the runPatterns result compared bit for bit.
std::string checkSignoff(const Signoff& s, std::size_t sampled) {
  for (const core::EstimateResult& r : s.estimates) {
    if (!totalIsConsistent(r)) {
      return "estimate total is not the finite positive per-gate sum";
    }
  }
  core::EstimationWorkspace ws(*s.plan);
  if (digest(s.plan->estimate(s.patterns[sampled], ws)) !=
      digest(s.estimates[sampled])) {
    return "runPatterns result differs from a fresh full estimate";
  }
  double est = 0.0;
  double golden = 0.0;
  double golden_gb = 0.0;
  double isolated_gb = 0.0;
  for (std::size_t i = 0; i < s.golden.size(); ++i) {
    est += s.estimates[i].total.total();
    golden += s.golden[i].total();
    golden_gb += s.golden[i].gate + s.golden[i].btbt;
    isolated_gb += s.isolated[i].gate + s.isolated[i].btbt;
  }
  if (!(errorPct(est, golden) < kGoldenBandPct)) {
    return "corner estimate off golden by " +
           std::to_string(errorPct(est, golden)) + "%";
  }
  if (!(golden_gb < isolated_gb)) {
    return "golden gate+BTBT leakage not below the isolated sum";
  }
  const core::EstimateResult sleep = s.plan->estimate(s.sleep.vector, ws);
  if (s.sleep.total != sleep.total.total() ||
      !sameBreakdown(s.sleep.leakage, sleep.total)) {
    return "sleep vector leakage differs from its estimate";
  }
  return "";
}

/// Per-vector |estimate - golden| of the golden-solved vectors [%].
std::vector<double> vectorErrors(const Signoff& s) {
  std::vector<double> errors;
  for (std::size_t i = 0; i < s.golden.size(); ++i) {
    errors.push_back(
        errorPct(s.estimates[i].total.total(), s.golden[i].total()));
  }
  return errors;
}

}  // namespace

Report runCornerSignoff(const Config& config) {
  Report report;
  OpLedger ledger;
  std::vector<double> build_s;
  std::unique_ptr<SignoffState> st = setUp(
      [&] {
        build_s.emplace_back();
        return std::make_unique<SignoffState>(config.seed, build_s.back());
      },
      report.setup_s);

  const std::size_t round = corners().size();
  std::vector<double> first_round_errors;
  double worst_corner = 0.0;
  SignoffTrace* trace = nullptr;
  const auto op = [&] {
    const std::size_t index = ledger.begin();
    const Corner& corner = corners()[index % round];
    const obs::Snapshot before = trace ? obs::snapshot() : obs::Snapshot{};
    const Clock::time_point start = Clock::now();
    Signoff s;
    SignoffTrace unused;
    try {
      s = st->signoff(corner, st->inputs, trace ? *trace : unused);
    } catch (const std::exception& e) {
      ledger.error(index, e.what());
      return secondsSince(start);
    }
    const double latency = secondsSince(start);
    if (trace != nullptr) {
      addCounterDeltas(before, trace->counters);
    }
    const std::string failure =
        checkSignoff(s, st->sampler.uniformInt(kVectors));
    if (!failure.empty()) {
      ledger.mismatch(index, std::string(corner.flavour) + "/" +
                                 std::to_string(corner.temperature_k) +
                                 "K: " + failure);
    }
    if (index < round) {
      const std::vector<double> errors = vectorErrors(s);
      first_round_errors.insert(first_round_errors.end(), errors.begin(),
                                errors.end());
      worst_corner = std::max(worst_corner, mean(errors));
    }
    return latency;
  };

  if (!config.trace) {
    const Phase phase = runPhase(config.seconds, round, op);
    report.throughput_per_s = phase.throughput();
    report.latency_p50_ms = 1e3 * median(phase.latency_s);
  } else {
    const Phase untraced = runPhase(config.seconds / 2, round, op);
    SignoffTrace totals;
    trace = &totals;
    const Phase traced = runPhase(config.seconds / 2, round, op);
    const double ops = static_cast<double>(traced.latency_s.size());
    double op_s = 0.0;
    for (const double s : traced.latency_s) {
      op_s += s;
    }
    const double covered = totals.char_s + totals.compile_s +
                           totals.run_patterns_s + totals.golden_s +
                           totals.isolated_s + totals.search_s;
    LayerValues& l = report.layers;
    l["logic.build_ms"] = 1e3 * median(build_s);
    l["core.char_s_per_corner"] = totals.char_s / ops;
    l["core.plan_compile_ms"] = 1e3 * totals.compile_s / ops;
    l["engine.run_patterns_ms"] = 1e3 * totals.run_patterns_s / ops;
    l["core.golden_ms_per_vector"] =
        1e3 * totals.golden_s / (ops * kGoldenVectors);
    l["circuit.char_node_solves"] =
        static_cast<double>(totals.char_node_solves) / ops;
    l["circuit.golden_node_solves"] =
        static_cast<double>(totals.golden_node_solves) /
        (ops * kGoldenVectors);
    l["circuit.node_solves_per_s"] =
        static_cast<double>(totals.char_node_solves +
                            totals.golden_node_solves) /
        (totals.char_s + totals.golden_s);
    l["circuit.batch_fallbacks"] =
        static_cast<double>(
            totals.counters.counterValue("solver.batch_fallbacks")) /
        ops;
    l["engine.pool_chunks_stolen"] =
        static_cast<double>(totals.counters.counterValue("pool.chunks_stolen")) /
        ops;
    l["search.heuristic_ms"] = 1e3 * totals.search_s / ops;
    l["op.unattributed_pct"] = 100.0 * (op_s - covered) / op_s;
    l["obs.trace_overhead_pct"] = traceOverheadPct(untraced, traced);
  }
  report.peak_rss_mb = peakRssMb();
  report.est_err_pct = mean(first_round_errors);
  report.layers["core.est_err_max_pct"] = worst_corner;
  finish(ledger, report);
  return report;
}

bool selfCheckCornerSignoff() {
  double build_s = 0.0;
  SignoffState st(1, build_s);
  OpLedger ledger;
  SignoffTrace unused;
  Signoff s = st.signoff(corners().front(), st.inputs, unused);
  const auto check = [&] {
    const std::size_t op = ledger.begin();
    if (const std::string f = checkSignoff(s, 0); !f.empty()) {
      ledger.mismatch(op, f);
    }
  };
  check();
  const bool clean_passed = ledger.failed() == 0;
  // The same sign-off with the sleep vector's leakage scaled by 1 + 1e-3.
  s.sleep.total *= 1.0 + 1e-3;
  s.sleep.leakage.subthreshold *= 1.0 + 1e-3;
  s.sleep.leakage.gate *= 1.0 + 1e-3;
  s.sleep.leakage.btbt *= 1.0 + 1e-3;
  check();
  return clean_passed && ledger.failed() == 1;
}

}  // namespace leakbench
