// Block execution of BatchRunner::runPatterns: patterns run in 64-lane
// blocks (one pool task per block) and every result must be bit-identical
// to a full estimate of the same pattern on a fresh workspace, for any
// pattern count (block-aligned or not), thread count, DFF boundary and
// estimator option; cancellation between blocks must leave the runner,
// its table cache and the plan reusable.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "engine/batch_runner.h"
#include "logic/generators.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/rng.h"

namespace nanoleak::engine {
namespace {

core::CharacterizationOptions smallGridOptions() {
  core::CharacterizationOptions options;
  options.kinds = core::generatorGateKinds();
  options.loading_grid = {0.0, 0.5e-6, 1.0e-6, 3.0e-6, 6.0e-6};
  return options;
}

const core::LeakageLibrary& sharedLibrary() {
  static const core::LeakageLibrary library =
      core::Characterizer(device::defaultTechnology(), smallGridOptions())
          .characterize();
  return library;
}

std::vector<std::vector<bool>> randomPatterns(std::size_t count,
                                              std::size_t bits,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<bool>> patterns;
  for (std::size_t i = 0; i < count; ++i) {
    patterns.push_back(logic::randomPattern(bits, rng));
  }
  return patterns;
}

void expectBitIdentical(const core::EstimateResult& expected,
                        const core::EstimateResult& actual,
                        const std::string& context) {
  ASSERT_EQ(expected.total.subthreshold, actual.total.subthreshold)
      << context;
  ASSERT_EQ(expected.total.gate, actual.total.gate) << context;
  ASSERT_EQ(expected.total.btbt, actual.total.btbt) << context;
  ASSERT_EQ(expected.per_gate.size(), actual.per_gate.size()) << context;
  for (std::size_t g = 0; g < expected.per_gate.size(); ++g) {
    const core::GateEstimate& e = expected.per_gate[g];
    const core::GateEstimate& a = actual.per_gate[g];
    ASSERT_EQ(e.leakage.subthreshold, a.leakage.subthreshold)
        << context << " gate " << g;
    ASSERT_EQ(e.leakage.gate, a.leakage.gate) << context << " gate " << g;
    ASSERT_EQ(e.leakage.btbt, a.leakage.btbt) << context << " gate " << g;
    ASSERT_EQ(e.il, a.il) << context << " gate " << g;
    ASSERT_EQ(e.ol, a.ol) << context << " gate " << g;
  }
}

/// Fresh-workspace full estimates: the reference every block result must
/// reproduce bit for bit.
std::vector<core::EstimateResult> freshEstimates(
    const core::EstimationPlan& plan,
    const std::vector<std::vector<bool>>& patterns) {
  std::vector<core::EstimateResult> out;
  for (const std::vector<bool>& pattern : patterns) {
    core::EstimationWorkspace ws(plan);
    out.push_back(plan.estimate(pattern, ws));
  }
  return out;
}

TEST(RunPatternsBlockTest, BitIdenticalToFreshEstimates) {
  const logic::LogicNetlist netlist = logic::synthesizeIscasLike(
      logic::iscasSpec("s838"), /*seed=*/20050307);
  ASSERT_FALSE(netlist.dffs().empty());

  struct Variant {
    std::string name;
    core::EstimatorOptions options;
  };
  std::vector<Variant> variants(3);
  variants[0].name = "loading";
  variants[1].name = "iterations=3";
  variants[1].options.propagation_iterations = 3;
  variants[2].name = "no-loading";
  variants[2].options.with_loading = false;

  const std::vector<std::size_t> counts = {0, 1, 63, 64, 65, 130};
  for (const Variant& variant : variants) {
    const core::EstimationPlan plan(netlist, sharedLibrary(),
                                    variant.options);
    const std::vector<std::vector<bool>> all =
        randomPatterns(130, plan.sourceCount(), 77);
    const std::vector<core::EstimateResult> reference =
        freshEstimates(plan, all);
    for (int threads : {1, 4}) {
      BatchRunner runner(BatchOptions{.threads = threads});
      for (std::size_t count : counts) {
        const std::vector<std::vector<bool>> patterns(
            all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count));
        const std::vector<core::EstimateResult> results =
            runner.runPatterns(plan, patterns);
        ASSERT_EQ(results.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
          expectBitIdentical(reference[i], results[i],
                             variant.name + " threads " +
                                 std::to_string(threads) + " count " +
                                 std::to_string(count) + " pattern " +
                                 std::to_string(i));
        }
      }
    }
  }
}

TEST(RunPatternsBlockTest, CancellationBetweenBlocksLeavesStateConsistent) {
  const device::Technology tech = device::defaultTechnology();
  const logic::LogicNetlist netlist = logic::arrayMultiplier(4);
  BatchRunner runner(BatchOptions{.threads = 1});
  const core::LeakageLibrary library = runner.cache().library(
      tech, core::estimationKinds(netlist), smallGridOptions());
  const TableCache::Stats cache_before = runner.cache().stats();
  const core::EstimationPlan plan(netlist, library);
  const std::vector<std::vector<bool>> patterns =
      randomPatterns(130, plan.sourceCount(), 5);  // three blocks
  const std::vector<core::EstimateResult> reference =
      freshEstimates(plan, patterns);

  // Hold the second block at its gate, cancel, then release it: the
  // first block has finished, the second polls the token before its
  // first lane and unwinds, the third never starts.
  util::fault::configureFaults("engine.run_patterns.block=gate@hit:2");
  util::CancelToken token;
  bool cancelled = false;
  std::thread victim([&] {
    const util::CancelScope scope(&token);
    try {
      runner.runPatterns(plan, patterns);
    } catch (const util::DeadlineExceeded&) {
      cancelled = true;
    }
  });
  while (util::fault::gateWaiters("engine.run_patterns.block") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  token.cancel();
  util::fault::openGate("engine.run_patterns.block");
  victim.join();
  util::fault::resetFaults();
  EXPECT_TRUE(cancelled);

  // The cache still holds the same entries and serves them as hits.
  const core::LeakageLibrary again = runner.cache().library(
      tech, core::estimationKinds(netlist), smallGridOptions());
  const TableCache::Stats cache_after = runner.cache().stats();
  EXPECT_EQ(cache_after.misses, cache_before.misses);
  EXPECT_GT(cache_after.hits, cache_before.hits);
  for (gates::GateKind kind : core::estimationKinds(netlist)) {
    ASSERT_EQ(again.tables(kind).size(), library.tables(kind).size());
    for (std::size_t v = 0; v < library.tables(kind).size(); ++v) {
      EXPECT_EQ(again.table(kind, v).subthreshold.values(),
                library.table(kind, v).subthreshold.values());
    }
  }

  // The runner and plan are reusable and exact after the unwind.
  const std::vector<core::EstimateResult> results =
      runner.runPatterns(plan, patterns);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expectBitIdentical(reference[i], results[i],
                       "after cancellation pattern " + std::to_string(i));
  }
}

}  // namespace
}  // namespace nanoleak::engine
