// Section 6 observation: "The input pattern for which we obtain the
// minimum total leakage changes due to the loading effect. This has
// significant impact on input vector control based leakage control."
//
// Random-search input-vector control on the 8-bit ALU with and without
// loading-aware estimation; reports how often the rankings disagree and
// whether the chosen minimum-leakage vectors differ.
//
// The candidate evaluations run on the engine's BatchRunner: one compiled
// EstimationPlan per estimator mode shared across all workers, one
// workspace per thread, bit-parallel 64-pattern blocks - bit-identical
// to a sequential per-call loop at any thread count.
//
// Usage: bench_vector_control [vectors] [threads]   (default 512, all
// hardware threads)
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "engine/batch_runner.h"
#include "logic/logic_sim.h"
#include "scenario/scenario.h"
#include "util/table_writer.h"
#include "util/units.h"

using namespace nanoleak;

int main(int argc, char** argv) {
  const std::size_t trials = bench::sampleCount(argc, argv, 512);
  // Circuit, flavour, and candidate vectors come from the scenario layer
  // (same definitions the registry suites and golden files use).
  const device::Technology tech = scenario::technologyForFlavour("d25s");

  core::CharacterizationOptions copts;
  copts.kinds = core::generatorGateKinds();
  const core::LeakageLibrary lib =
      core::Characterizer(tech, copts).characterize();

  const logic::LogicNetlist nl = scenario::buildCircuit("alu88");
  const core::EstimationPlan with(nl, lib);
  core::EstimatorOptions off;
  off.with_loading = false;
  const core::EstimationPlan without(nl, lib, off);

  engine::BatchRunner runner(
      engine::BatchOptions{.threads = bench::threadCount(argc, argv)});
  std::cout << "evaluating " << trials << " candidate vectors on "
            << runner.pool().threadCount() << " thread(s)\n";

  const std::vector<std::vector<bool>> patterns = scenario::expandVectors(
      scenario::VectorPolicy::random(trials, 20050307), with.sourceCount());
  const std::vector<core::EstimateResult> with_results =
      runner.runPatterns(with, patterns);
  const std::vector<core::EstimateResult> without_results =
      runner.runPatterns(without, patterns);

  struct Candidate {
    std::vector<bool> vec;
    double with_na;
    double without_na;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    candidates.push_back({patterns[i],
                          toNanoAmps(with_results[i].total.total()),
                          toNanoAmps(without_results[i].total.total())});
  }

  auto by_with = candidates;
  std::sort(by_with.begin(), by_with.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.with_na < b.with_na;
            });
  auto by_without = candidates;
  std::sort(by_without.begin(), by_without.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.without_na < b.without_na;
            });

  bench::banner("Input-vector control on alu88 (" +
                std::to_string(trials) + " random vectors)");
  TableWriter table({"rank", "no-loading pick [nA]",
                     "same vector under loading?",
                     "loading-aware pick [nA]"});
  for (std::size_t rank = 0; rank < 5 && rank < candidates.size(); ++rank) {
    const bool same = by_with[rank].vec == by_without[rank].vec;
    table.addRow({std::to_string(rank + 1),
                  formatDouble(by_without[rank].without_na, 1),
                  same ? "yes" : "NO",
                  formatDouble(by_with[rank].with_na, 1)});
  }
  table.printText(std::cout);

  // Count pairwise ranking disagreements on a subsample.
  std::size_t disagreements = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < candidates.size(); i += 7) {
    for (std::size_t j = i + 1; j < candidates.size(); j += 13) {
      ++pairs;
      const bool order_with = candidates[i].with_na < candidates[j].with_na;
      const bool order_without =
          candidates[i].without_na < candidates[j].without_na;
      if (order_with != order_without) {
        ++disagreements;
      }
    }
  }
  std::cout << "pairwise ranking disagreements (loading-aware vs not): "
            << disagreements << " / " << pairs << " sampled pairs\n";
  const bool argmin_moved = by_with.front().vec != by_without.front().vec;
  std::cout << "minimum-leakage vector changes under loading: "
            << (argmin_moved ? "YES" : "no (for this sample)") << "\n";
  std::cout << "(the paper's point: IVC decisions made without loading "
               "awareness can pick a vector that is not actually minimal)\n";
  return 0;
}
