// The estimator error table: for each circuit and each (flavour,
// temperature) corner, `vectors` seeded random vectors are estimated on
// the plan path and golden-solved (core::GoldenSolver). Prints the signed
// mean, min and max of (estimate - golden) / golden and the golden
// gate + BTBT leakage against the isolated no-loading sum, as a Markdown
// table. `grid_max_ua` > 6 extends the characterization loading grid up
// to that many microamps, to test whether grid clamping explains the error.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/golden.h"
#include "engine/batch_runner.h"
#include "logic/logic_sim.h"
#include "scenario/scenario.h"

namespace leakbench {

int printErrorTable(const std::vector<std::string>& circuits,
                    std::size_t vectors, double grid_max_ua,
                    std::uint64_t seed) {
  core::CharacterizationOptions options = scenarioCharOptions();
  for (double point = options.loading_grid.back() * 1.5;
       point < grid_max_ua * 1e-6; point *= 1.5) {
    options.loading_grid.push_back(point);
  }
  if (grid_max_ua * 1e-6 > options.loading_grid.back()) {
    options.loading_grid.push_back(grid_max_ua * 1e-6);
  }
  std::printf("loading grid up to %.3g uA, %zu vectors per corner, seed "
              "%llu\n\n",
              options.loading_grid.back() * 1e6, vectors,
              static_cast<unsigned long long>(seed));
  std::printf("| circuit | corner | mean err %% | min err %% | max err %% | "
              "golden gate+BTBT vs isolated %% |\n");
  std::printf("|---|---|---|---|---|---|\n");
  for (const std::string& name : circuits) {
    const logic::LogicNetlist netlist = scenario::buildCircuit(name);
    for (const char* flavour : {"d25s", "d25g", "d25jn"}) {
      for (const double t : {233.0, 300.0, 360.0, 398.0}) {
        const device::Technology tech = cornerTechnology(flavour, t);
        engine::BatchRunner runner(engine::BatchOptions{.threads = 1});
        const core::LeakageLibrary library = runner.cache().library(
            tech, core::estimationKinds(netlist), options);
        const core::EstimationPlan plan(netlist, library);
        core::EstimationWorkspace ws(plan);
        core::GoldenSolver solver(netlist, tech);
        Rng rng(nanoleak::deriveStreamSeed(seed, 0));
        std::vector<double> errors;
        double golden_gb = 0.0;
        double isolated_gb = 0.0;
        for (std::size_t i = 0; i < vectors; ++i) {
          const std::vector<bool> p =
              logic::randomPattern(plan.sourceCount(), rng);
          const device::LeakageBreakdown g = solver.solve(p).total;
          const device::LeakageBreakdown iso =
              core::isolatedSumLeakage(netlist, tech, p);
          const double e = plan.estimate(p, ws).total.total();
          errors.push_back(100.0 * (e - g.total()) / g.total());
          golden_gb += g.gate + g.btbt;
          isolated_gb += iso.gate + iso.btbt;
        }
        std::printf("| %s | %s/%gK | %+.2f | %+.2f | %+.2f | %+.2f |\n",
                    name.c_str(), flavour, t, mean(errors),
                    *std::min_element(errors.begin(), errors.end()),
                    *std::max_element(errors.begin(), errors.end()),
                    100.0 * (golden_gb - isolated_gb) / isolated_gb);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}

}  // namespace leakbench
