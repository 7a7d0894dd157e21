// Monte-Carlo engine for the paper's Fig. 10/11: leakage distribution of a
// loaded gate (default: inverter with 6 input-loading and 6 output-loading
// inverters, input '0') with and without loading, under process variation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "device/device_params.h"
#include "device/leakage_breakdown.h"
#include "gates/gate_library.h"
#include "mc/variation.h"

namespace nanoleak::circuit {
class Netlist;
struct Solution;
}  // namespace nanoleak::circuit

namespace nanoleak::mc {

/// Trial index naming the nominal (variation-free) fixture solve in
/// fixtureNonConvergenceMessage().
inline constexpr std::size_t kNominalTrial = static_cast<std::size_t>(-1);

/// ConvergenceError message of a failed fixture solve: "MonteCarloEngine:
/// fixture solve failed (trial <i>, node <name>, |residual| = <r> A)",
/// with "nominal" in place of the trial for kNominalTrial.
std::string fixtureNonConvergenceMessage(const circuit::Netlist& netlist,
                                         const circuit::Solution& solution,
                                         std::size_t trial);

/// The Fig. 10 circuit shape.
struct McFixtureConfig {
  gates::GateKind kind = gates::GateKind::kInv;
  std::vector<bool> input_vector = {false};  // input '0', output '1'
  int input_loads = 6;
  int output_loads = 6;
};

/// One Monte-Carlo sample: the gate's decomposition with the loading gates
/// present and with them absent, under identical device variations for the
/// shared (driver + gate) devices.
struct McSample {
  device::LeakageBreakdown with_loading;
  device::LeakageBreakdown without_loading;
};

/// Aggregate of a Monte-Carlo run.
struct McSummary {
  double mean_with = 0.0;
  double mean_without = 0.0;
  double std_with = 0.0;
  double std_without = 0.0;
  double max_with = 0.0;
  double max_without = 0.0;
  /// Loading-induced change of the mean / std / max, percent.
  double mean_shift_pct = 0.0;
  double std_shift_pct = 0.0;
  double max_shift_pct = 0.0;
};

/// Runs paired with/without-loading transistor-level solves per sample.
///
/// By default trials run on compiled fixtures: the with/without netlists
/// are built and compiled into SolverKernels once (per worker, pooled),
/// then every trial re-binds the drawn per-device variations and the
/// sampled VDD in place and warm-starts from the nominal operating point -
/// no netlist rebuild per trial. setUseCompiledFixtures(false) restores
/// the historical rebuild-per-trial path (the reference the compiled path
/// is tested against; results agree within solver tolerance, not bitwise).
class MonteCarloEngine {
 public:
  MonteCarloEngine(device::Technology technology, VariationSigmas sigmas,
                   McFixtureConfig config = {});
  ~MonteCarloEngine();
  MonteCarloEngine(const MonteCarloEngine&) = delete;
  MonteCarloEngine& operator=(const MonteCarloEngine&) = delete;

  /// Draws and solves `samples` trials. Deterministic for a given seed.
  /// Samples are drawn from ONE sequential RNG stream, so trial i depends
  /// on trials 0..i-1 having been drawn first; use runBatched() when the
  /// population must be partitionable across threads.
  std::vector<McSample> run(std::size_t samples, std::uint64_t seed) const;

  /// Contract for an external parallel executor (the sweep engine's
  /// BatchRunner provides one): partition [0, count) and invoke
  /// body(begin, end) on every piece, returning once all pieces ran.
  using ParallelExecutor = std::function<void(
      std::size_t count,
      const std::function<void(std::size_t begin, std::size_t end)>& body)>;

  /// Trial `index` of the batched population keyed by `seed`. Independent
  /// of every other trial: its RNG stream comes from counter-based seeding
  /// (deriveStreamSeed), so workers may evaluate trials in any order.
  McSample runSample(std::uint64_t seed, std::size_t index) const;

  /// Batched run: a pure function of (samples, seed) - bit-identical for
  /// any executor partitioning and thread count. A null executor runs
  /// sequentially on the calling thread.
  ///
  /// With useBatchedSolves() (the default, on compiled fixtures), trials
  /// are grouped by ABSOLUTE index into SIMD lane batches of
  /// circuit::BatchSolverKernel::kLaneWidth and each group's with/without
  /// solves run in lockstep; the executor partitions groups, never
  /// splitting one, so the any-partitioning guarantee holds unchanged.
  /// Results agree with the scalar per-trial path (runSample) within
  /// <= 1e-6 relative - bit-identical on scalar (lane width 1) builds.
  std::vector<McSample> runBatched(std::size_t samples, std::uint64_t seed,
                                   const ParallelExecutor& executor = {}) const;

  /// Summary statistics of total leakage over a run.
  static McSummary summarizeTotals(const std::vector<McSample>& samples);

  /// Selects the per-trial solve strategy (see class comment). Not
  /// thread-safe against concurrent runs; set before running.
  void setUseCompiledFixtures(bool use) { use_compiled_ = use; }
  bool useCompiledFixtures() const { return use_compiled_; }

  /// Selects lane-parallel lockstep solves for runBatched() (see its
  /// comment). Only effective on compiled fixtures; run()/runSample()
  /// always solve scalar. Not thread-safe against concurrent runs.
  void setUseBatchedSolves(bool use) { use_batched_ = use; }
  bool useBatchedSolves() const { return use_batched_; }

 private:
  struct CompiledFixtures;
  struct BatchedFixtures;

  /// One trial drawn from `sampler`; `trial` names it in errors.
  McSample runOne(VariationSampler& sampler, std::size_t trial) const;
  McSample runOneLegacy(VariationSampler& sampler, std::size_t trial) const;
  McSample runOneCompiled(CompiledFixtures& fixtures,
                          VariationSampler& sampler,
                          std::size_t trial) const;
  /// Draws the per-trial die/device variations in fixture instantiation
  /// order (drivers, gate, loaders) - shared by both paths so their
  /// populations are statistically identical.
  std::vector<device::DeviceVariation> drawDeviceVariations(
      VariationSampler& sampler, const DieSample& die) const;

  /// Checks a compiled fixture pair out of the pool (building one when
  /// empty) and back in; trials mutate fixture state, so each is owned by
  /// one worker at a time.
  std::unique_ptr<CompiledFixtures> acquireFixtures() const;
  void releaseFixtures(std::unique_ptr<CompiledFixtures> fixtures) const;

  /// Same pooling for the lane-parallel fixture pairs runBatched() uses.
  std::unique_ptr<BatchedFixtures> acquireBatchedFixtures() const;
  void releaseBatchedFixtures(std::unique_ptr<BatchedFixtures> fixtures) const;

  /// Solves trials [begin, end) (one lane group) of the batched
  /// population keyed by `seed` in lockstep, writing McSamples to
  /// out[0 .. end-begin).
  void runGroupBatched(BatchedFixtures& fixtures, std::uint64_t seed,
                       std::size_t begin, std::size_t end,
                       McSample* out) const;

  device::Technology technology_;
  VariationSigmas sigmas_;
  McFixtureConfig config_;
  bool use_compiled_ = true;
  bool use_batched_ = true;
  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<CompiledFixtures>> pool_;
  mutable std::vector<std::unique_ptr<BatchedFixtures>> batch_pool_;
};

}  // namespace nanoleak::mc
