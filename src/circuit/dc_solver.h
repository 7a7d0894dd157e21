// Nonlinear DC operating-point solver.
//
// Plays the role HSPICE played in the paper: it solves the full coupled
// KCL system (the paper's Eq. 1-2 generalized to every free node) to
// convergence, so the "golden" leakage numbers every approximation is
// judged against come from here.
//
// Method: nonlinear Gauss-Seidel. Leakage-mode CMOS circuits are strongly
// diagonally dominant - every net is held near a rail through an ON
// transistor whose conductance dwarfs the tunneling currents coupling it
// to other nets - so per-node scalar solves (safeguarded Newton with a
// maintained bisection bracket) swept repeatedly over the nodes converge
// in a handful of sweeps without any sparse-matrix machinery, and scale
// to the s13207-size netlist expansions of Fig. 12. Convergence is checked
// on both voltage deltas and KCL residuals.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/netlist.h"

namespace nanoleak::circuit {

/// Solver tuning knobs. Defaults suit 1 V leakage-mode circuits.
struct SolverOptions {
  /// Node voltages are bracketed to [bracket_lo, bracket_hi].
  double bracket_lo = -0.3;
  double bracket_hi = 1.3;
  /// Convergence: max |dV| over a sweep [V].
  double tol_voltage = 1e-10;
  /// Convergence: max |KCL residual| at any free node [A].
  double tol_current = 1e-16;
  /// Maximum Gauss-Seidel sweeps before giving up.
  std::size_t max_sweeps = 200;
  /// Maximum Newton/bisection iterations per scalar node solve.
  std::size_t max_node_iterations = 60;
  /// Minimum conductance from every free node to ground [S] (SPICE gmin);
  /// keeps genuinely floating nodes well-posed without disturbing nA-scale
  /// results.
  double gmin = 1e-12;
  /// Ambient temperature [K].
  double temperature_k = 300.0;
};

/// Result of a DC solve.
struct Solution {
  /// Node potentials, indexed by NodeId (fixed nodes hold their binding).
  std::vector<double> voltages;
  bool converged = false;
  std::size_t sweeps = 0;
  /// Max |KCL residual| over free nodes at exit [A].
  double max_residual = 0.0;
  /// Free node carrying max_residual (so non-converging solves can name
  /// the offending net); npos when the netlist has no free nodes.
  NodeId max_residual_node = static_cast<NodeId>(-1);
  /// Total scalar node solves performed (work metric for the speedup bench).
  std::size_t node_solves = 0;
};

/// Diagnostic fragment for ConvergenceError messages: "node <name>,
/// |residual| = <r> A" (r in %.3e notation) naming the worst free node of
/// a failed solve, or empty when the solution carries no valid
/// max_residual_node. Shared by every solve wrapper so non-converging
/// corners read the same in CI logs.
std::string nonConvergenceDetail(const Netlist& netlist,
                                 const Solution& solution);

/// DC operating-point solver over a Netlist.
class DcSolver {
 public:
  explicit DcSolver(SolverOptions options = SolverOptions{});

  /// Solves the netlist. `initial_guess` (optional) seeds free-node
  /// voltages - pass expected logic levels for fast convergence; when
  /// empty, free nodes start mid-bracket.
  ///
  /// `sweep_order` (optional) gives the order free nodes are relaxed in;
  /// a topological order makes Gauss-Seidel converge in O(1) sweeps.
  Solution solve(const Netlist& netlist,
                 const std::vector<double>& initial_guess = {},
                 const std::vector<NodeId>& sweep_order = {}) const;

  /// KCL residual (net current leaving `node`) at the given voltages.
  /// Exposed so tests can verify solutions independently.
  static double nodeResidual(const Netlist& netlist,
                             const std::vector<double>& voltages, NodeId node,
                             const SolverOptions& options);

  const SolverOptions& options() const { return options_; }

 private:
  SolverOptions options_;
};

}  // namespace nanoleak::circuit
