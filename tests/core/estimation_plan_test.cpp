// Equivalence contract of the compile-once / execute-many split: the
// EstimationPlan + EstimationWorkspace paths (full and incremental delta)
// are bit-identical to the legacy per-call LeakageEstimator::estimate on
// every LeakageBreakdown field of every gate, across randomized circuits,
// patterns, single-bit-flip walks, propagation iteration counts, and
// DFF-bearing netlists.
#include "core/estimation_plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/characterizer.h"
#include "core/estimator.h"
#include "logic/generators.h"
#include "util/error.h"
#include "util/rng.h"

namespace nanoleak::core {
namespace {

const LeakageLibrary& sharedLibrary() {
  static const LeakageLibrary library = [] {
    CharacterizationOptions options;
    options.kinds = generatorGateKinds();
    options.loading_grid = {0.0, 0.5e-6, 1.0e-6, 2.0e-6, 3.0e-6, 6.0e-6};
    return Characterizer(device::defaultTechnology(), options).characterize();
  }();
  return library;
}

void expectExactlyEqual(const EstimateResult& expected,
                        const EstimateResult& actual,
                        const std::string& context) {
  EXPECT_EQ(expected.total.subthreshold, actual.total.subthreshold)
      << context;
  EXPECT_EQ(expected.total.gate, actual.total.gate) << context;
  EXPECT_EQ(expected.total.btbt, actual.total.btbt) << context;
  ASSERT_EQ(expected.per_gate.size(), actual.per_gate.size()) << context;
  for (std::size_t g = 0; g < expected.per_gate.size(); ++g) {
    const GateEstimate& e = expected.per_gate[g];
    const GateEstimate& a = actual.per_gate[g];
    ASSERT_EQ(e.leakage.subthreshold, a.leakage.subthreshold)
        << context << " gate " << g;
    ASSERT_EQ(e.leakage.gate, a.leakage.gate) << context << " gate " << g;
    ASSERT_EQ(e.leakage.btbt, a.leakage.btbt) << context << " gate " << g;
    ASSERT_EQ(e.il, a.il) << context << " gate " << g;
    ASSERT_EQ(e.ol, a.ol) << context << " gate " << g;
  }
}

/// Random patterns (full path on a fresh and a reused workspace) followed
/// by a single-bit-flip walk (delta path), all checked against the legacy
/// estimator.
void runEquivalence(const logic::LogicNetlist& netlist,
                    const EstimatorOptions& options,
                    const std::string& context, std::uint64_t seed,
                    int random_patterns = 6, int flip_steps = 24) {
  const LeakageEstimator legacy(netlist, sharedLibrary(), options);
  const EstimationPlan plan(netlist, sharedLibrary(), options);
  EstimationWorkspace ws(plan);
  EstimateResult plan_result;

  Rng rng(seed);
  for (int i = 0; i < random_patterns; ++i) {
    const std::vector<bool> pattern =
        logic::randomPattern(plan.sourceCount(), rng);
    const EstimateResult expected = legacy.estimate(pattern);

    // Full path on a cold workspace.
    EstimationWorkspace cold(plan);
    expectExactlyEqual(expected, plan.estimate(pattern, cold),
                       context + " full/cold pattern " + std::to_string(i));
    // Full path on the reused workspace.
    plan.estimate(pattern, ws, plan_result);
    expectExactlyEqual(expected, plan_result,
                       context + " full/warm pattern " + std::to_string(i));
    // Delta path fed an arbitrary previous state.
    plan.estimateDelta(pattern, ws, plan_result);
    expectExactlyEqual(expected, plan_result,
                       context + " delta/same pattern " + std::to_string(i));
  }

  // Single-bit-flip walk: the delta path's home turf.
  std::vector<bool> pattern = logic::randomPattern(plan.sourceCount(), rng);
  plan.estimate(pattern, ws, plan_result);
  for (int step = 0; step < flip_steps; ++step) {
    const std::size_t bit =
        static_cast<std::size_t>(rng.uniformInt(plan.sourceCount()));
    pattern[bit] = !pattern[bit];
    plan.estimateDelta(pattern, ws, plan_result);
    expectExactlyEqual(legacy.estimate(pattern), plan_result,
                       context + " delta step " + std::to_string(step));
  }

  // Many-bit jump (exercises the dirty-fraction fallback).
  for (std::size_t bit = 0; bit < pattern.size(); bit += 2) {
    pattern[bit] = !pattern[bit];
  }
  plan.estimateDelta(pattern, ws, plan_result);
  expectExactlyEqual(legacy.estimate(pattern), plan_result,
                     context + " delta jump");
}

TEST(EstimationPlanTest, MatchesLegacyOnRandomCircuits) {
  struct Case {
    std::string name;
    logic::LogicNetlist netlist;
  };
  std::vector<Case> cases;
  cases.push_back({"c17", logic::c17()});
  cases.push_back({"fanout_star6", logic::fanoutStar(6)});
  cases.push_back({"mult44", logic::arrayMultiplier(4)});
  cases.push_back(
      {"s838_like", logic::synthesizeIscasLike(logic::iscasSpec("s838"),
                                               20050307)});

  std::uint64_t seed = 7;
  for (const Case& c : cases) {
    for (int iterations : {1, 3}) {
      EstimatorOptions options;
      options.propagation_iterations = iterations;
      runEquivalence(c.netlist, options,
                     c.name + " iters=" + std::to_string(iterations),
                     seed++);
    }
    EstimatorOptions no_loading;
    no_loading.with_loading = false;
    runEquivalence(c.netlist, no_loading, c.name + " no-loading", seed++);
  }
}

TEST(EstimationPlanTest, MatchesLegacyOnDffBoundary) {
  // Hand-built DFF netlist: gate -> DFF -> gate, so both the pseudo-PO
  // loading on the D net and the pseudo-PI source on the Q net are hit.
  logic::LogicNetlist nl;
  const logic::NetId in = nl.addNet("in");
  nl.markPrimaryInput(in);
  const logic::NetId mid = nl.addNet("mid");
  const logic::NetId q = nl.addNet("q");
  const logic::NetId out = nl.addNet("out");
  nl.addGate(gates::GateKind::kInv, {in}, mid);
  nl.addDff(mid, q);
  nl.addGate(gates::GateKind::kInv, {q}, out);
  nl.markPrimaryOutput(out);

  for (int iterations : {1, 3}) {
    EstimatorOptions options;
    options.propagation_iterations = iterations;
    runEquivalence(nl, options,
                   "dff_pair iters=" + std::to_string(iterations), 99,
                   /*random_patterns=*/4, /*flip_steps=*/8);
  }
}

TEST(EstimationPlanTest, EstimateBlockMatchesPerPatternEstimate) {
  struct Case {
    std::string name;
    logic::LogicNetlist netlist;
  };
  std::vector<Case> cases;
  cases.push_back({"mult44", logic::arrayMultiplier(4)});
  cases.push_back(
      {"s838_like", logic::synthesizeIscasLike(logic::iscasSpec("s838"),
                                               20050307)});
  ASSERT_FALSE(cases.back().netlist.dffs().empty());

  std::vector<EstimatorOptions> variants(3);
  variants[1].propagation_iterations = 3;
  variants[2].with_loading = false;

  std::uint64_t seed = 31;
  for (const Case& c : cases) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const EstimationPlan plan(c.netlist, sharedLibrary(), variants[v]);
      EstimationWorkspace ws(plan);
      Rng rng(seed++);
      for (std::size_t lanes : {std::size_t{1}, std::size_t{63},
                                EstimationPlan::kBlockLanes}) {
        std::vector<std::vector<bool>> patterns;
        for (std::size_t k = 0; k < lanes; ++k) {
          patterns.push_back(logic::randomPattern(plan.sourceCount(), rng));
        }
        std::vector<EstimateResult> results(lanes);
        plan.estimateBlock(patterns, ws, results);
        EXPECT_FALSE(ws.warm());
        for (std::size_t k = 0; k < lanes; ++k) {
          EstimationWorkspace fresh(plan);
          expectExactlyEqual(plan.estimate(patterns[k], fresh), results[k],
                             c.name + " variant " + std::to_string(v) +
                                 " lanes " + std::to_string(lanes) +
                                 " lane " + std::to_string(k));
        }
      }
      // A workspace used for blocks still serves the delta path exactly.
      const std::vector<bool> pattern =
          logic::randomPattern(plan.sourceCount(), rng);
      EstimationWorkspace fresh(plan);
      expectExactlyEqual(plan.estimate(pattern, fresh),
                         plan.estimateDelta(pattern, ws),
                         c.name + " delta after block");
    }
  }
}

TEST(EstimationPlanTest, EstimateBlockValidatesItsArguments) {
  const logic::LogicNetlist nl = logic::c17();  // 5 sources
  const EstimationPlan plan(nl, sharedLibrary());
  EstimationWorkspace ws(plan);
  std::vector<std::vector<bool>> patterns(EstimationPlan::kBlockLanes + 1,
                                          std::vector<bool>(5, false));
  std::vector<EstimateResult> results(patterns.size());
  EXPECT_THROW(plan.estimateBlock(patterns, ws, results), Error);

  patterns.resize(2);
  results.resize(1);
  EXPECT_THROW(plan.estimateBlock(patterns, ws, results), Error);

  results.resize(2);
  patterns[1].resize(4);
  try {
    plan.estimateBlock(patterns, ws, results);
    FAIL() << "expected nanoleak::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("got 4"), std::string::npos);
  }
  // An empty block is a no-op.
  EXPECT_NO_THROW(plan.estimateBlock({}, ws, {}));
}

/// Expects EstimationPlan construction to throw nanoleak::Error whose
/// message contains `needle`.
void expectPlanRejects(const logic::LogicNetlist& netlist,
                       const LeakageLibrary& library,
                       const std::string& needle) {
  try {
    const EstimationPlan plan(netlist, library);
    FAIL() << "expected nanoleak::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(EstimationPlanTest, RejectsTablesWithTheWrongPinCurrentCount) {
  // One NAND2 table carrying three pin currents for a two-pin gate.
  LeakageLibrary library = sharedLibrary();
  std::vector<VectorTable> nand2 = library.tables(gates::GateKind::kNand2);
  nand2[2].pin_current.push_back(0.0);
  library.insert(gates::GateKind::kNand2, nand2);
  expectPlanRejects(logic::c17(), library, "table shape mismatch for NAND2");
}

TEST(EstimationPlanTest, RejectsDffBoundaryInvTablesWithoutPinCurrent) {
  // DFF netlist without INV gates: only the DFF boundary model reads the
  // INV tables, so only its check can catch the missing pin current.
  logic::LogicNetlist nl;
  const logic::NetId a = nl.addNet("a");
  const logic::NetId b = nl.addNet("b");
  nl.markPrimaryInput(a);
  nl.markPrimaryInput(b);
  const logic::NetId d = nl.addNet("d");
  const logic::NetId q = nl.addNet("q");
  const logic::NetId out = nl.addNet("out");
  nl.addGate(gates::GateKind::kNand2, {a, b}, d);
  nl.addDff(d, q);
  nl.addGate(gates::GateKind::kNand2, {q, a}, out);
  nl.markPrimaryOutput(out);
  EXPECT_NO_THROW(EstimationPlan(nl, sharedLibrary()));

  for (std::size_t vec : {0u, 1u}) {
    LeakageLibrary library = sharedLibrary();
    std::vector<VectorTable> inv = library.tables(gates::GateKind::kInv);
    inv[vec].pin_current.clear();
    library.insert(gates::GateKind::kInv, inv);
    expectPlanRejects(nl, library, "DFF boundary model");
  }
}

TEST(EstimationPlanTest, RejectsWrongSourceCount) {
  const logic::LogicNetlist nl = logic::c17();  // 5 sources
  const EstimationPlan plan(nl, sharedLibrary());
  EstimationWorkspace ws(plan);
  try {
    plan.estimate(std::vector<bool>(3, false), ws);
    FAIL() << "expected nanoleak::Error";
  } catch (const Error& error) {
    // The message names the expected and the offending count.
    EXPECT_NE(std::string(error.what()).find("5"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("3"), std::string::npos);
  }
  EXPECT_THROW(plan.estimateDelta(std::vector<bool>(6, false), ws), Error);
}

TEST(EstimationPlanTest, RejectsForeignWorkspace) {
  const logic::LogicNetlist a = logic::c17();
  const logic::LogicNetlist b = logic::fanoutStar(3);
  const EstimationPlan plan_a(a, sharedLibrary());
  const EstimationPlan plan_b(b, sharedLibrary());
  EstimationWorkspace ws_b(plan_b);
  EXPECT_THROW(plan_a.estimate(std::vector<bool>(5, false), ws_b), Error);
}

TEST(EstimationPlanTest, InvalidateForcesFullReevaluation) {
  const logic::LogicNetlist nl = logic::arrayMultiplier(4);
  const LeakageEstimator legacy(nl, sharedLibrary());
  const EstimationPlan plan(nl, sharedLibrary());
  EstimationWorkspace ws(plan);

  std::vector<bool> pattern(plan.sourceCount(), false);
  plan.estimate(pattern, ws);
  EXPECT_TRUE(ws.warm());
  ws.invalidate();
  EXPECT_FALSE(ws.warm());
  pattern[0] = true;
  expectExactlyEqual(legacy.estimate(pattern),
                     plan.estimateDelta(pattern, ws), "post-invalidate");
  EXPECT_TRUE(ws.warm());
}

}  // namespace
}  // namespace nanoleak::core
