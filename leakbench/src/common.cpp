#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "scenario/scenario.h"
#include "util/error.h"

namespace leakbench {

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void addCounterDeltas(const obs::Snapshot& before, obs::Snapshot& totals) {
  const obs::Snapshot delta = obs::snapshot().deltaSince(before);
  for (const auto& [name, value] : delta.counters) {
    totals.counters[name] += value;
  }
}

void OpLedger::mismatch(std::size_t op, const std::string& what) {
  std::cerr << "leakbench: check failed (op " << op << "): " << what << "\n";
  failed_.insert(op);
  correct_ = false;
}

void OpLedger::error(std::size_t op, const std::string& what) {
  std::cerr << "leakbench: op " << op << " failed: " << what << "\n";
  failed_.insert(op);
}

void OpLedger::runCheckFailed(const std::string& what) {
  std::cerr << "leakbench: check failed: " << what << "\n";
  correct_ = false;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

namespace {

void mix(std::uint64_t& h, double value) {
  unsigned char bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(double));
  for (const unsigned char b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
}

void mix(std::uint64_t& h, const device::LeakageBreakdown& b) {
  mix(h, b.subthreshold);
  mix(h, b.gate);
  mix(h, b.btbt);
}

}  // namespace

std::uint64_t digest(const core::EstimateResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, result.total);
  for (const core::GateEstimate& g : result.per_gate) {
    mix(h, g.leakage);
    mix(h, g.il);
    mix(h, g.ol);
  }
  return h;
}

bool totalIsConsistent(const core::EstimateResult& result) {
  const device::LeakageBreakdown& t = result.total;
  for (const double c : {t.subthreshold, t.gate, t.btbt, t.total()}) {
    if (!std::isfinite(c) || c <= 0.0) {
      return false;
    }
  }
  device::LeakageBreakdown sum;
  for (const core::GateEstimate& g : result.per_gate) {
    sum += g.leakage;
  }
  return sum.subthreshold == t.subthreshold && sum.gate == t.gate &&
         sum.btbt == t.btbt;
}

device::Technology cornerTechnology(const std::string& flavour,
                                    double temperature_k) {
  nanoleak::scenario::Scenario sc;
  sc.flavour = flavour;
  sc.temperature_k = temperature_k;
  return nanoleak::scenario::technologyFor(sc);
}

core::CharacterizationOptions scenarioCharOptions() {
  core::CharacterizationOptions options;
  options.solver_path = scenario::Scenario{}.char_solver_path;
  return options;
}

double Phase::busyThroughput() const {
  double busy = 0.0;
  for (const double s : latency_s) {
    busy += s;
  }
  return static_cast<double>(latency_s.size()) / busy;
}

double traceOverheadPct(const Phase& untraced, const Phase& traced) {
  return 100.0 * (untraced.busyThroughput() / traced.busyThroughput() - 1.0);
}

double errorPct(double estimate, double golden) {
  return 100.0 * std::abs(estimate - golden) / golden;
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw nanoleak::Error("leakbench: no VmHWM in /proc/self/status");
}

void finish(const OpLedger& ledger, Report& report) {
  report.correct = ledger.correct();
  report.attempted = ledger.attempted();
  report.failed = ledger.failed();
}

const std::vector<MetricSpec>& layerCatalogue() {
  static const std::vector<MetricSpec> catalogue = {
      {"logic.sim_ns_per_gate", "ns"},
      {"logic.delta_us_per_step", "us"},
      {"logic.build_ms", "ms"},
      {"core.estimate_ns_per_gate", "ns"},
      {"core.propagate_ns_per_gate", "ns"},
      {"core.delta_us_per_step", "us"},
      {"core.delta_fallback_full_per_op", "count"},
      {"core.delta_incremental_per_op", "count"},
      {"core.char_s_per_corner", "s"},
      {"core.plan_compile_ms", "ms"},
      {"core.golden_ms_per_vector", "ms"},
      {"core.est_err_max_pct", "%"},
      {"circuit.char_node_solves", "count"},
      {"circuit.golden_node_solves", "count"},
      {"circuit.node_solves_per_s", "1/s"},
      {"circuit.batch_fallbacks", "count"},
      {"mc.samples_per_s", "1/s"},
      {"search.heuristic_ms", "ms"},
      {"engine.run_patterns_ms", "ms"},
      {"engine.pool_chunks_stolen", "count"},
      {"engine.table_cache_misses", "count"},
      {"engine.plan_cache_hits", "count"},
      {"scenario.encode_us", "us"},
      {"scenario.decode_us", "us"},
      {"serve.estimate_p50_ms", "ms"},
      {"serve.estimate_p90_ms", "ms"},
      {"serve.estimate_p99_ms", "ms"},
      {"serve.mc_p50_ms", "ms"},
      {"serve.thermal_p50_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"op.unattributed_pct", "%"},
  };
  return catalogue;
}

namespace {

void printMetric(bool& first, const char* name, double value,
                 const char* unit) {
  if (!std::isfinite(value)) {
    value = 0.0;  // JSON has no inf/nan; the stderr summary shows the cause
  }
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

}  // namespace

void printResult(const Report& report, bool trace) {
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  if (trace) {
    for (const MetricSpec& spec : layerCatalogue()) {
      const auto it = report.layers.find(spec.name);
      printMetric(first, spec.name,
                  it == report.layers.end() ? 0.0 : it->second, spec.unit);
    }
  } else {
    printMetric(first, "setup_s", report.setup_s, "s");
    printMetric(first, "throughput_per_s", report.throughput_per_s, "1/s");
    printMetric(first, "latency_p50_ms", report.latency_p50_ms, "ms");
    printMetric(first, "peak_rss_mb", report.peak_rss_mb, "MB");
    printMetric(first, "est_err_pct", report.est_err_pct, "%");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace leakbench
