// serve_mix: an in-process serve::Server (1 executor x 1 engine thread) on
// a Unix socket, driven by two closed-loop serve::ServeClients. With one
// executor the other client's request is always queued, so every request
// passes through the fair queue, and the run needs one busy core: with two
// executors, throughput fell 15% when three other busy processes shared
// the 4-core machine, against 2% with one. Each client
// repeats a fixed 16-request cycle: 14 `estimate` requests (s1423, d25s,
// 300 K, 32 random vectors, a fresh seed each), one `mc` request (64
// samples, fresh seed) and one `thermal` request (c17, 233-398 K in 4
// points, 8 vectors, fresh seed). One op is one request, timed at the
// client; clients stop at a cycle boundary once the phase is over.
//
// Checks: every response has status ok; sampled payloads are
// byte-identical to an in-process scenario::runScenario of the same
// resolved scenario (the byte-identity src/serve/server.h promises); the
// first sampled estimate request is golden-solved on all its vectors and
// its served mean must lie within 6.5% of the golden mean.
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "core/golden.h"
#include "engine/batch_runner.h"
#include "engine/plan_cache.h"
#include "logic/logic_sim.h"
#include "scenario/golden_file.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "scenario/serve_protocol.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json.h"

namespace leakbench {
namespace {

constexpr int kWorkers = 1;
constexpr int kEngineThreads = 1;
constexpr std::size_t kClients = 2;
constexpr std::size_t kCycle = 16;
constexpr const char* kEstimateCircuit = "s1423";
constexpr std::size_t kEstimateVectors = 32;
constexpr std::size_t kMcSamples = 64;
constexpr const char* kThermalCircuit = "c17";
constexpr std::size_t kThermalPoints = 4;
constexpr std::size_t kThermalVectors = 8;

using scenario::ServeOp;
using scenario::ServeRequest;
using scenario::ServeResponse;
using scenario::ServeStatus;

/// Op of position `pos` in a client's cycle.
ServeOp mixOp(std::size_t pos) {
  if (pos == kCycle / 2 - 1) {
    return ServeOp::kMonteCarlo;
  }
  if (pos == kCycle - 1) {
    return ServeOp::kThermal;
  }
  return ServeOp::kEstimate;
}

ServeRequest makeRequest(ServeOp op, std::uint64_t seed, std::string id) {
  ServeRequest r;
  r.id = std::move(id);
  r.op = op;
  scenario::Scenario& sc = r.scenario;
  sc.flavour = "d25s";
  sc.temperature_k = 300.0;
  if (op == ServeOp::kEstimate) {
    sc.circuit = kEstimateCircuit;
    sc.vectors = scenario::VectorPolicy::random(kEstimateVectors, seed);
  } else if (op == ServeOp::kMonteCarlo) {
    sc.mc_samples = kMcSamples;
    sc.mc_seed = seed;
  } else {
    sc.circuit = kThermalCircuit;
    sc.thermal = {233.0, 398.0, kThermalPoints};
    sc.vectors = scenario::VectorPolicy::random(kThermalVectors, seed);
  }
  return r;
}

/// A fresh request seed; the protocol carries seeds as JSON numbers and
/// accepts at most 1e15.
std::uint64_t requestSeed(Rng& rng) { return rng.uniformInt(1000000000000ULL); }

std::string socketPath() {
  static int count = 0;
  std::filesystem::create_directories(".bench_build");
  return ".bench_build/leakbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(count++) + ".sock";
}

/// A started daemon with its connected clients, caches warmed by one
/// request of each op. Clients are declared after the server so they
/// disconnect before the server drains and joins.
struct ServeState {
  explicit ServeState(std::uint64_t seed)
      : path(socketPath()),
        server(serve::ServerOptions{.socket_path = path,
                                    .workers = kWorkers,
                                    .threads = kEngineThreads}) {
    server.start();
    serve::ServeClient::Options options;
    options.connect_timeout_ms = 10000;
    options.request_timeout_ms = 60000;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(serve::ServeClient::connectUnix(path, options));
    }
    Rng warm(nanoleak::deriveStreamSeed(seed, 0));
    for (const ServeOp op :
         {ServeOp::kEstimate, ServeOp::kMonteCarlo, ServeOp::kThermal}) {
      const ServeResponse r =
          clients.front().call(makeRequest(op, requestSeed(warm), "warm"));
      if (r.status != ServeStatus::kOk) {
        throw nanoleak::Error("serve warm-up failed: " + r.message);
      }
    }
  }
  ~ServeState() {
    clients.clear();
    server.requestShutdown();
    server.wait();
  }
  ServeState(const ServeState&) = delete;
  ServeState& operator=(const ServeState&) = delete;

  const std::string path;
  serve::Server server;
  std::vector<serve::ServeClient> clients;
};

/// One request and its answer, kept for the after-phase checks.
struct ServedSample {
  std::size_t op = 0;
  ServeRequest request;
  std::string payload;
};

/// What one client thread saw in a phase.
struct ClientLog {
  std::vector<double> latency_s;
  std::vector<ServeOp> ops;
  std::vector<std::string> failures;  // "" = ok, per request
  std::vector<ServedSample> samples;
};

/// One client's closed loop: whole cycles until `seconds` have passed
/// since `start`. Request seeds come from stream `stream` of the run seed;
/// cycle k keeps its request at position 5k mod 16 as a sample, so every
/// position (mc and thermal too) is sampled over a run.
void clientLoop(serve::ServeClient& client, std::size_t index,
                std::uint64_t seed, std::uint64_t stream,
                Clock::time_point start, double seconds, ClientLog& log) {
  Rng rng(nanoleak::deriveStreamSeed(seed, stream));
  std::size_t cycle = 0;
  do {
    for (std::size_t pos = 0; pos < kCycle; ++pos) {
      const ServeOp op = mixOp(pos);
      const std::size_t n = log.latency_s.size();
      ServeRequest request = makeRequest(
          op, requestSeed(rng),
          "c" + std::to_string(index) + "-" + std::to_string(n));
      const Clock::time_point t = Clock::now();
      std::string failure;
      ServeResponse response;
      try {
        response = client.call(request);
        if (response.status != ServeStatus::kOk) {
          failure = std::string("status ") + toString(response.status) +
                    ": " + response.message;
        }
      } catch (const std::exception& e) {
        failure = std::string("transport: ") + e.what();
      }
      log.latency_s.push_back(secondsSince(t));
      log.ops.push_back(op);
      log.failures.push_back(failure);
      if (failure.empty() && pos == (5 * cycle) % kCycle) {
        log.samples.push_back(
            {n, std::move(request), std::move(response.payload)});
      }
    }
    ++cycle;
  } while (secondsSince(start) < seconds);
}

/// Everything a phase of both clients produced.
struct ServePhase {
  Phase phase;
  std::vector<ServeOp> ops;
  std::vector<ServedSample> samples;  // op = index into phase.latency_s
};

/// Runs both clients for `seconds`.
ServePhase runServePhase(ServeState& st, std::uint64_t seed, double seconds,
                         OpLedger& ledger) {
  std::vector<ClientLog> logs(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      clientLoop(st.clients[c], c, seed, 100 + c,
                 start, seconds, logs[c]);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ServePhase out;
  out.phase.wall_s = secondsSince(start);
  for (const ClientLog& log : logs) {
    const std::size_t base = ledger.attempted();
    for (std::size_t i = 0; i < log.latency_s.size(); ++i) {
      const std::size_t op = ledger.begin();
      if (!log.failures[i].empty()) {
        ledger.error(op, log.failures[i]);
      }
      out.phase.latency_s.push_back(log.latency_s[i]);
      out.ops.push_back(log.ops[i]);
    }
    for (const ServedSample& s : log.samples) {
      out.samples.push_back({base + s.op, s.request, s.payload});
    }
  }
  return out;
}

/// In-process reference: the resolved scenario of a request run through
/// scenario::runScenario on a private runner and plan cache.
struct Reference {
  Reference() : runner(engine::BatchOptions{.threads = kEngineThreads}) {}

  /// Canonical payload bytes for `request`; `seconds` gets the
  /// runScenario time.
  std::string payload(const ServeRequest& request, double& seconds) {
    const scenario::Scenario sc =
        scenario::decodeRequest(scenario::encodeRequest(request)).scenario;
    const Clock::time_point start = Clock::now();
    scenario::SuiteResult suite;
    suite.suite = sc.name;
    suite.scenarios.push_back(scenario::runScenario(sc, runner, &plans));
    seconds = secondsSince(start);
    return scenario::serializeSuite(suite);
  }

  engine::BatchRunner runner;
  engine::PlanCache plans;
};

/// Golden mean vs the served mean of one estimate sample; returns the
/// per-vector |error| of the in-process estimates [%].
std::vector<double> goldenCheck(Reference& ref, const ServedSample& s,
                                OpLedger& ledger) {
  const scenario::Scenario sc =
      scenario::decodeRequest(scenario::encodeRequest(s.request)).scenario;
  const logic::LogicNetlist netlist = scenario::buildCircuit(sc.circuit);
  const device::Technology tech = scenario::technologyFor(sc);
  const std::vector<std::vector<bool>> patterns =
      scenario::expandVectors(sc.vectors, netlist.sourceNets().size());
  const core::LeakageLibrary library = ref.runner.cache().library(
      tech, core::estimationKinds(netlist), scenarioCharOptions());
  const core::EstimationPlan plan(netlist, library);
  core::EstimationWorkspace ws(plan);
  core::GoldenSolver solver(netlist, tech);
  std::vector<double> errors;
  double golden_sum = 0.0;
  for (const std::vector<bool>& p : patterns) {
    const double g = solver.solve(p).total.total();
    golden_sum += g;
    errors.push_back(errorPct(plan.estimate(p, ws).total.total(), g));
  }
  const scenario::SuiteResult served = scenario::parseSuite(s.payload);
  const scenario::Metric* served_mean =
      served.scenarios.front().find("total_mean_A");
  const double golden_mean =
      golden_sum / static_cast<double>(patterns.size());
  if (served_mean == nullptr ||
      !(errorPct(served_mean->value, golden_mean) < kGoldenBandPct)) {
    ledger.mismatch(s.op, "served mean off the golden mean by more than " +
                              std::to_string(kGoldenBandPct) + "%");
  }
  return errors;
}

double statsCounter(serve::ServeClient& client, const char* name) {
  ServeRequest request;
  request.id = "stats";
  request.op = ServeOp::kStats;
  const ServeResponse r = client.call(request);
  const nanoleak::util::JsonValue doc =
      nanoleak::util::parseJson(r.payload, "stats");
  const nanoleak::util::JsonValue* counters = doc.find("counters");
  const nanoleak::util::JsonValue* value =
      counters ? counters->find(name) : nullptr;
  return value ? value->number : 0.0;
}

std::vector<double> latenciesOf(const ServePhase& p, ServeOp op) {
  std::vector<double> out;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    if (p.ops[i] == op) {
      out.push_back(p.phase.latency_s[i]);
    }
  }
  return out;
}

/// Per-call time of encodeResponse / decodeResponse on served payloads.
void codecLayers(const std::vector<ServedSample>& samples, LayerValues& l) {
  std::vector<double> encode, decode;
  for (const ServedSample& s : samples) {
    ServeResponse response;
    response.id = s.request.id;
    response.payload = s.payload;
    Clock::time_point t = Clock::now();
    const std::string wire = scenario::encodeResponse(response);
    encode.push_back(secondsSince(t));
    t = Clock::now();
    const ServeResponse back = scenario::decodeResponse(wire);
    decode.push_back(secondsSince(t));
  }
  l["scenario.encode_us"] = 1e6 * median(encode);
  l["scenario.decode_us"] = 1e6 * median(decode);
}

/// Simulate / full-estimate cost per gate on the sampled estimate vectors.
void estimatorLayers(Reference& ref, const std::vector<ServedSample>& samples,
                     LayerValues& l) {
  const logic::LogicNetlist netlist =
      scenario::buildCircuit(kEstimateCircuit);
  const core::LeakageLibrary library = ref.runner.cache().library(
      cornerTechnology("d25s", 300.0), core::estimationKinds(netlist),
      scenarioCharOptions());
  const core::EstimationPlan plan(netlist, library);
  const logic::LogicSimulator sim(netlist);
  core::EstimationWorkspace ws(plan);
  core::EstimateResult out;
  std::vector<bool> values;
  double sim_s = 0.0;
  double est_s = 0.0;
  double evals = 0.0;
  for (const ServedSample& s : samples) {
    if (s.request.op != ServeOp::kEstimate) {
      continue;
    }
    const std::vector<std::vector<bool>> patterns = scenario::expandVectors(
        s.request.scenario.vectors, plan.sourceCount());
    Clock::time_point t = Clock::now();
    for (const std::vector<bool>& p : patterns) {
      sim.simulateInto(p, values);
    }
    sim_s += secondsSince(t);
    t = Clock::now();
    for (const std::vector<bool>& p : patterns) {
      plan.estimate(p, ws, out);
    }
    est_s += secondsSince(t);
    evals += static_cast<double>(patterns.size() * plan.gateCount());
  }
  l["logic.sim_ns_per_gate"] = 1e9 * sim_s / evals;
  l["core.estimate_ns_per_gate"] = 1e9 * est_s / evals;
  l["core.propagate_ns_per_gate"] = 1e9 * (est_s - sim_s) / evals;
}

}  // namespace

Report runServeMix(const Config& config) {
  Report report;
  OpLedger ledger;
  std::unique_ptr<ServeState> st = setUp(
      [&] { return std::make_unique<ServeState>(config.seed); },
      report.setup_s);

  Reference ref;
  // Clients time every request in untraced runs too, and the per-layer
  // figures come from reads and replays around the phase, so tracing adds
  // no per-op work here: obs.trace_overhead_pct stays 0.
  engine::PlanCache::Stats plans0;
  double requests0 = 0.0;
  if (config.trace) {
    plans0 = st->server.planCache()->stats();
    requests0 = statsCounter(st->clients.front(), "serve.requests");
  }
  const ServePhase phase =
      runServePhase(*st, config.seed, config.seconds, ledger);
  const std::vector<ServedSample>& samples = phase.samples;
  if (!config.trace) {
    report.throughput_per_s = phase.phase.throughput();
    report.latency_p50_ms = 1e3 * median(phase.phase.latency_s);
  } else {
    const double requests1 =
        statsCounter(st->clients.front(), "serve.requests");
    // The daemon counts every frame it decoded: the phase's requests plus
    // the second stats call.
    if (requests1 - requests0 <
        static_cast<double>(phase.phase.latency_s.size())) {
      ledger.runCheckFailed("daemon counted fewer requests than were sent");
    }
    LayerValues& l = report.layers;
    const std::vector<double> est = latenciesOf(phase, ServeOp::kEstimate);
    l["serve.estimate_p50_ms"] = 1e3 * quantile(est, 0.5);
    l["serve.estimate_p90_ms"] = 1e3 * quantile(est, 0.9);
    l["serve.estimate_p99_ms"] = 1e3 * quantile(est, 0.99);
    l["serve.mc_p50_ms"] =
        1e3 * median(latenciesOf(phase, ServeOp::kMonteCarlo));
    l["serve.thermal_p50_ms"] =
        1e3 * median(latenciesOf(phase, ServeOp::kThermal));
    l["engine.table_cache_misses"] =
        static_cast<double>(st->server.tableCache()->stats().misses);
    l["engine.plan_cache_hits"] = static_cast<double>(
        st->server.planCache()->stats().hits - plans0.hits);
    codecLayers(samples, l);
    estimatorLayers(ref, samples, l);
  }

  report.peak_rss_mb = peakRssMb();
  // Byte identity of every sampled payload; the first estimate replay
  // also warms the reference's caches, so it is not timed.
  std::vector<double> replay_s;
  std::vector<double> mc_replay_s;
  bool warmed = false;
  for (const ServedSample& s : samples) {
    double seconds = 0.0;
    if (ref.payload(s.request, seconds) != s.payload) {
      ledger.mismatch(s.op, "served payload differs from runScenario");
    }
    if (s.request.op == ServeOp::kEstimate) {
      if (warmed) {
        replay_s.push_back(seconds);
      }
      warmed = true;
    } else if (s.request.op == ServeOp::kMonteCarlo) {
      mc_replay_s.push_back(seconds);
    }
  }
  const ServedSample* first_estimate = nullptr;
  for (const ServedSample& s : samples) {
    if (s.request.op == ServeOp::kEstimate) {
      first_estimate = &s;
      break;
    }
  }
  if (first_estimate == nullptr) {
    ledger.runCheckFailed("no estimate request was sampled");
  } else {
    const std::vector<double> errors =
        goldenCheck(ref, *first_estimate, ledger);
    report.est_err_pct = mean(errors);
    double worst = 0.0;
    for (const double e : errors) {
      worst = std::max(worst, e);
    }
    report.layers["core.est_err_max_pct"] = worst;
  }
  if (config.trace) {
    LayerValues& l = report.layers;
    const double in_process_ms = 1e3 * median(replay_s);
    l["serve.overhead_ms"] = l["serve.estimate_p50_ms"] - in_process_ms;
    l["mc.samples_per_s"] = kMcSamples / median(mc_replay_s);
    l["op.unattributed_pct"] =
        100.0 * (1.0 - (in_process_ms + 1e-3 * (l["scenario.encode_us"] +
                                                l["scenario.decode_us"])) /
                           l["serve.estimate_p50_ms"]);
  }
  finish(ledger, report);
  return report;
}

bool selfCheckServeMix() {
  ServeState st(1);
  Reference ref;
  OpLedger ledger;
  ServedSample s;
  s.request = makeRequest(ServeOp::kEstimate, 7, "selfcheck");
  const ServeResponse r = st.clients.front().call(s.request);
  s.payload = r.payload;
  s.op = ledger.begin();
  double seconds = 0.0;
  if (r.status != ServeStatus::kOk ||
      ref.payload(s.request, seconds) != s.payload) {
    ledger.mismatch(s.op, "clean payload rejected");
  }
  const bool clean_passed = ledger.failed() == 0;
  // The same payload with one byte changed.
  s.payload[s.payload.size() / 2] ^= 0x01;
  s.op = ledger.begin();
  if (ref.payload(s.request, seconds) != s.payload) {
    ledger.mismatch(s.op, "payload differs from runScenario");
  }
  return clean_passed && ledger.failed() == 1;
}

}  // namespace leakbench
