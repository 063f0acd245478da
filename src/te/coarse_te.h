// The §4 coarse-TE pipeline and its evaluation:
//
//   1. Coarsen the WAN into supernodes and aggregate demands accordingly.
//   2. Solve TE on the coarse graph (cheap: few nodes, few commodities).
//   3. Realize the coarse solution on the fine graph — traffic between
//      supernodes must follow the corridors the coarse solution chose
//      ("all traffic from the supernode must be routed along predetermined
//      network edges defined in the coarsened graph" [1]), and traffic
//      inside a supernode is invisible to the optimizer, so it falls back
//      to shortest-path routing.
//   4. Compare the realized throughput against the fine-grained optimum.
//
// evaluate_coarse_te() returns everything the Pareto-frontier experiment
// (bench_e2) plots: reduction factor vs optimality loss, plus solver work.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/contraction.h"
#include "lp/mcf.h"
#include "te/te_controller.h"
#include "topology/wan.h"

namespace smn::te {

struct CoarseTeReport {
  std::size_t supernode_count = 0;
  std::size_t fine_commodities = 0;
  std::size_t coarse_commodities = 0;
  /// |S|/|s| over topology size measure (nodes + links).
  double topology_reduction = 1.0;
  /// |S|/|s| over commodity count (proxy for log-row reduction at fixed
  /// epoch granularity).
  double demand_reduction = 1.0;
  double lambda_fine = 0.0;             ///< fine-grained optimum (GK)
  double lambda_coarse_nominal = 0.0;   ///< optimum as seen on the coarse graph
  double lambda_realized = 0.0;         ///< coarse solution realized on fine graph
  /// lambda_realized / lambda_fine in [0, ~1]: the optimality retained.
  double fidelity = 0.0;
  /// Greedily admittable demand (Gbps) along each routing — a smoother
  /// fidelity signal than the min-based lambda.
  double admitted_fine_gbps = 0.0;
  double admitted_realized_gbps = 0.0;
  /// admitted_realized / admitted_fine in [0, ~1].
  double throughput_fidelity = 0.0;
  std::size_t fine_sp_calls = 0;
  std::size_t coarse_sp_calls = 0;
  double fine_solve_ms = 0.0;
  double coarse_solve_ms = 0.0;
};

/// Runs the full pipeline. `fine_commodities` index into `fine.graph()`
/// node ids. Throws std::invalid_argument on a partition that does not
/// cover `fine`. With `options.threads > 1` the independent fine-grained
/// solve and coarse pipeline run concurrently; the report is identical for
/// every thread count.
CoarseTeReport evaluate_coarse_te(const topology::WanTopology& fine,
                                  const graph::Partition& partition,
                                  const std::vector<lp::Commodity>& fine_commodities,
                                  const TeOptions& options = {});

/// The TE epoch loop: one evaluate_coarse_te per demand window (e.g. one
/// per telemetry coarsening window), fanned out over a thread pool.
/// Window i's report lands in slot i, so the result does not depend on
/// `options.threads`.
std::vector<CoarseTeReport> evaluate_coarse_te_windows(
    const topology::WanTopology& fine, const graph::Partition& partition,
    const std::vector<std::vector<lp::Commodity>>& window_commodities,
    const TeOptions& options = {});

/// The realization step alone: routes `fine_commodities` on `fine`
/// following `coarse_solution`'s corridor choices and returns the per-edge
/// loads plus the max concurrent lambda of that fixed routing. When
/// `routing_out` is non-null it receives the explicit per-commodity paths
/// (crossings anchored at each corridor's primary link), suitable for
/// greedy_admitted_demand.
lp::FixedRoutingResult realize_coarse_solution(
    const topology::WanTopology& fine, const graph::Partition& partition,
    const topology::WanTopology& coarse, const lp::McfResult& coarse_solution,
    const std::vector<lp::Commodity>& fine_commodities,
    const std::vector<lp::Commodity>& coarse_commodities,
    std::vector<lp::RoutedDemand>* routing_out = nullptr);

/// Explicit routing extracted from a fine-grained MCF solution: each
/// commodity's GK path decomposition as demand fractions; commodities the
/// solver left unrouted fall back to their shortest path.
std::vector<lp::RoutedDemand> routing_from_mcf(const graph::Digraph& g,
                                               const lp::McfResult& solution,
                                               const std::vector<lp::Commodity>& commodities);

/// Aggregates fine commodities by supernode pair (intra-supernode demands
/// are dropped — invisible to the coarse optimizer).
std::vector<lp::Commodity> aggregate_commodities(const topology::WanTopology& fine,
                                                 const graph::Partition& partition,
                                                 const std::vector<lp::Commodity>& fine_commodities);

// --- Federated TE (DESIGN.md §12) ---
//
// The two-level solve the controller federation runs: the global controller
// optimizes the coarse inter-region graph (the only thing its exports let
// it see) with the same flat max_concurrent_flow every other tier uses,
// while each region re-solves its *intra-region* commodities as an
// independent MCF on its own subgraph — replacing the realization step's
// shortest-path default with a real per-region optimization. The regional
// solves are embarrassingly parallel and fan out over a thread pool;
// results land in per-region slots, so the report is identical for every
// thread count.
//
// The global graph has one node per region (35 on a 1050-DC WAN), too
// small for a contraction hierarchy to pay: routing this solve through a
// customizable CH made each federated call on that WAN take about 0.34 s
// median against 0.20 s flat (perfbench large_wan, 4-core x86 box), at
// lambda_federated within 0.2%.

struct FederatedTeOptions {
  double epsilon = 0.05;  ///< MCF accuracy, all tiers
  /// Workers for the per-region refinement fan-out (0 = hardware
  /// concurrency). Each regional solve runs serially inside its slot.
  std::size_t threads = 1;
  /// Also run the flat single-controller solve as the fidelity reference.
  /// Skipping it leaves the flat/fidelity fields zero.
  bool solve_flat = true;
};

struct FederatedTeReport {
  std::size_t regions = 0;
  std::size_t fine_commodities = 0;
  std::size_t coarse_commodities = 0;
  /// Intra-region commodities the regional refinement solves re-routed.
  std::size_t refined_commodities = 0;
  double lambda_flat = 0.0;            ///< single-controller optimum
  double lambda_global_nominal = 0.0;  ///< optimum as seen on the coarse graph
  double lambda_federated = 0.0;       ///< federated routing on the fine graph
  /// Greedily admittable demand under each routing, and their ratio — the
  /// federation's fidelity gate.
  double admitted_flat_gbps = 0.0;
  double admitted_federated_gbps = 0.0;
  double throughput_fidelity = 0.0;
  std::size_t flat_sp_calls = 0;
  std::size_t global_sp_calls = 0;
  std::size_t refine_sp_calls = 0;
  double flat_solve_ms = 0.0;
  double global_solve_ms = 0.0;
  /// Sum of per-region refinement solve times (CPU view, not wall-clock).
  double refine_solve_ms = 0.0;
  /// Wall-clock of the whole federated pipeline (coarsen + global solve +
  /// realize + refine + assemble), the number gated against flat_solve_ms.
  double federated_total_ms = 0.0;
};

/// Runs the federated pipeline. `partition` is the region partition;
/// `fine_commodities` index into `fine.graph()` node ids. Throws
/// std::invalid_argument on a partition that does not cover `fine`.
FederatedTeReport evaluate_federated_te(const topology::WanTopology& fine,
                                        const graph::Partition& partition,
                                        const std::vector<lp::Commodity>& fine_commodities,
                                        const FederatedTeOptions& options = {});

}  // namespace smn::te
