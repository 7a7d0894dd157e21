// Shared pieces of the leakbench program: run configuration, the result
// line, the per-operation ledger, timing and order statistics, and the
// fixed metric catalogue (which must match BENCHMARK.json).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "device/device_params.h"
#include "obs/metrics.h"
#include "util/rng.h"

// Declared here so the aliases below need no further headers.
namespace nanoleak::circuit {}
namespace nanoleak::engine {}
namespace nanoleak::scenario {}
namespace nanoleak::search {}
namespace nanoleak::serve {}

namespace leakbench {

namespace circuit = nanoleak::circuit;
namespace core = nanoleak::core;
namespace device = nanoleak::device;
namespace engine = nanoleak::engine;
namespace logic = nanoleak::logic;
namespace obs = nanoleak::obs;
namespace scenario = nanoleak::scenario;
namespace search = nanoleak::search;
namespace serve = nanoleak::serve;
using nanoleak::Rng;

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double secondsSince(Clock::time_point start);

/// Runs `f`, adds its wall time to `seconds` and returns what `f` returns.
template <typename F>
decltype(auto) addTime(double& seconds, F&& f) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    seconds += secondsSince(start);
  } else {
    auto result = f();
    seconds += secondsSince(start);
    return result;
  }
}

/// Adds the obs counter deltas since `before` into `totals`.
void addCounterDeltas(const obs::Snapshot& before, obs::Snapshot& totals);

/// Largest |estimate - golden| / golden [%] a checked estimate may show:
/// the band tests/integration/paper_claims_test.cpp enforces.
inline constexpr double kGoldenBandPct = 6.5;

/// Command-line configuration of one workload run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase [s]. With tracing the phase is split
  /// into an untraced half and a traced half.
  double seconds = 10.0;
  bool trace = false;
};

/// How many times each workload sets up from scratch; setup_s is the
/// median, so one slow first-touch setup does not decide it.
inline constexpr int kSetupRepeats = 3;

/// Operations attempted and failed, by operation index. A failed check
/// marks its operation failed and the run incorrect; an exception thrown
/// by the program marks the operation failed only.
class OpLedger {
 public:
  /// Registers a new operation and returns its index.
  std::size_t begin() { return attempted_++; }
  /// The output of operation `op` failed a check.
  void mismatch(std::size_t op, const std::string& what);
  /// Operation `op` threw instead of producing an output.
  void error(std::size_t op, const std::string& what);
  /// A run-level check (not tied to one operation) failed.
  void runCheckFailed(const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_.size(); }
  bool correct() const { return correct_; }

 private:
  std::uint64_t attempted_ = 0;
  std::set<std::size_t> failed_;
  bool correct_ = true;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1] (0 when empty).
double quantile(std::vector<double> values, double q);
/// Arithmetic mean (0 when empty).
double mean(const std::vector<double>& values);

/// Order-sensitive FNV-1a digest of every double of an estimate (total
/// and per-gate leakage, IL, OL): equal digests mean bit-identical results
/// for all practical purposes.
std::uint64_t digest(const core::EstimateResult& result);

/// True when the total is finite and positive in every component and
/// equals the gate-order sum of the per-gate decompositions bit for bit.
bool totalIsConsistent(const core::EstimateResult& result);

/// Technology of a (flavour, temperature) corner, as scenarios build it.
device::Technology cornerTechnology(const std::string& flavour,
                                    double temperature_k);

/// Characterization options of the path scenario::Scenario defaults to
/// (what `nanoleak run` and `serve` characterize with).
core::CharacterizationOptions scenarioCharOptions();

/// |estimate - golden| / golden in percent.
double errorPct(double estimate, double golden);

/// Peak resident set of this process so far [MB], from VmHWM in
/// /proc/self/status (getrusage's ru_maxrss would start from the peak of
/// the launcher that exec'd this program). Workloads read it at the end of
/// the measured phase, so the after-phase checks (golden solves, replays)
/// do not count.
double peakRssMb();

/// Result of one measured phase: per-operation latencies and wall time.
struct Phase {
  std::vector<double> latency_s;
  double wall_s = 0.0;
  /// Operations per second of wall time.
  double throughput() const {
    return static_cast<double>(latency_s.size()) / wall_s;
  }
  /// Operations per second of operation time (excludes work between
  /// operations, such as a traced run's replays).
  double busyThroughput() const;
};

/// Runs `op` (which returns its own latency in seconds) back to back in
/// whole rounds of `round` operations until `seconds` have elapsed; at
/// least one round runs.
template <typename Op>
Phase runPhase(double seconds, std::size_t round, Op&& op) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t k = 0; k < round; ++k) {
      phase.latency_s.push_back(op());
    }
  } while (secondsSince(start) < seconds);
  phase.wall_s = secondsSince(start);
  return phase;
}

/// Builds a workload's state `kSetupRepeats` times from scratch (dropping
/// the previous one first, so peak memory holds one) and returns the last;
/// `setup_s` receives the median build time. `make` returns a
/// std::unique_ptr to the state and includes the untimed warm-up op.
template <typename Make>
auto setUp(Make&& make, double& setup_s) {
  decltype(make()) state;
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = make();
    times.push_back(secondsSince(start));
  }
  setup_s = median(times);
  return state;
}

/// Trace overhead in percent: how much slower traced operations ran than
/// untraced ones.
double traceOverheadPct(const Phase& untraced, const Phase& traced);

/// Per-layer metric values of a traced run, keyed by catalogue name.
/// Metrics a workload does not exercise stay 0.
using LayerValues = std::map<std::string, double>;

/// What one workload run reports (the result line).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced runs).
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double peak_rss_mb = 0.0;
  double est_err_pct = 0.0;
  /// Per-layer metrics (traced runs).
  LayerValues layers;
};

/// Copies the ledger's tallies into the report.
void finish(const OpLedger& ledger, Report& report);

/// Prints the result line for `report` (end-to-end metrics, or per-layer
/// metrics when `trace`) as the last line of standard output.
void printResult(const Report& report, bool trace);

/// One entry of the metric catalogue.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Per-layer metrics, in output order.
const std::vector<MetricSpec>& layerCatalogue();

/// Workload entry points (one per workload file).
Report runChipRandom(const Config& config);
Report runChipWalk(const Config& config);
Report runCornerSignoff(const Config& config);
Report runServeMix(const Config& config);

/// Self-checks: each feeds its workload's checker one clean and one
/// deliberately wrong output and returns true when the clean one passes
/// and the wrong one is counted as a failed operation.
bool selfCheckChipRandom();
bool selfCheckChipWalk();
bool selfCheckCornerSignoff();
bool selfCheckServeMix();

/// Prints the per-corner estimator error table (see README.md).
int printErrorTable(const std::vector<std::string>& circuits,
                    std::size_t vectors, double grid_max_ua,
                    std::uint64_t seed);

}  // namespace leakbench
