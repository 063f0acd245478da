// Approximate maximum concurrent multi-commodity flow
// (Fleischer / Garg–Könemann multiplicative-weights scheme).
//
// This is the workhorse TE oracle: given a capacitated digraph and a demand
// matrix, it computes the largest lambda such that lambda * every demand is
// simultaneously routable. Production WAN TE (SWAN, B4, BlastShield) solves
// LPs of this shape; we need it at both the fine (300-node) and coarse
// (supernode) granularity, so an FPTAS that scales with graph size — rather
// than a dense simplex — is the appropriate substrate.
//
// The returned solution is *certified feasible*: raw multiplicative-weights
// flows are rescaled so that no edge exceeds capacity, and lambda is then
// recomputed as min_j routed_j / demand_j. Guarantee: lambda >= (1 - O(eps))
// * lambda_opt.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/shortest_path.h"

namespace smn::lp {

struct Commodity {
  graph::NodeId src = graph::kInvalidNode;
  graph::NodeId dst = graph::kInvalidNode;
  double demand = 0.0;
};

/// One routed path with the amount of (scaled) flow it carries.
struct PathFlow {
  std::size_t commodity = 0;
  std::vector<graph::EdgeId> edges;
  double flow = 0.0;
};

struct McfResult {
  /// Fraction of every demand that is simultaneously routable.
  double lambda = 0.0;
  /// Total flow routed (sum over commodities of routed amount).
  double total_flow = 0.0;
  /// Feasible per-edge flow (indexed by EdgeId).
  std::vector<double> edge_flow;
  /// Per-commodity routed amount.
  std::vector<double> routed;
  /// Flow decomposition by path (already scaled to feasibility).
  std::vector<PathFlow> paths;
  /// Number of shortest-path computations performed (work metric).
  std::size_t sp_calls = 0;
  /// Warm-start accounting (all zero when McfOptions::warm_start is null):
  /// commodities seeded from the cache, active commodities with no usable
  /// cached path, and cached-path re-selections that replaced what would
  /// otherwise have been a shortest-path rebuild.
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
  std::size_t warm_reselects = 0;
};

/// Cross-solve warm-start state: the (1 + eps) path set of a previous
/// max_concurrent_flow solve, keyed by commodity endpoints so it survives
/// commodity reordering between solves. Wire the same cache object into the
/// next solve over the same (or a drifted) instance via
/// McfOptions::warm_start:
///
///   * every cached path is revalidated against the current graph (edge ids
///     in range, a contiguous src->dst walk, positive capacity on every
///     edge); failures are dropped per-path and counted in `invalidated`;
///   * a commodity with at least one surviving path routes over its cached
///     set for the whole solve, re-selecting the currently-shortest cached
///     path whenever the active one goes stale — zero shortest-path calls
///     while the cache covers it;
///   * a commodity with no usable cache falls back to the cold oracle
///     (per-source Dijkstra trees), so new or invalidated commodities cost
///     what they always did.
///
/// After the solve the cache is rewritten with the solve's own certified
/// path set (up to kWarmPathsPerCommodity highest-flow paths per
/// commodity). Quality note: warm routing restricts each cached commodity
/// to its cached paths, so the FPTAS eps guarantee is relative to the best
/// routing *within that set*; the result is still certified feasible, and
/// callers that care (the adaptive bench) gate measured fidelity against a
/// cold tight solve.
struct McfPathCache {
  struct Entry {
    graph::NodeId src = graph::kInvalidNode;
    graph::NodeId dst = graph::kInvalidNode;
    /// Alternative paths, highest previous flow first.
    std::vector<std::vector<graph::EdgeId>> paths;
  };
  std::vector<Entry> entries;
  /// Stats of the most recent solve that consumed this cache (mirrored into
  /// McfResult::warm_hits / warm_misses).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidated = 0;

  void clear() {
    entries.clear();
    hits = misses = invalidated = 0;
  }
};

/// Paths persisted per commodity into a McfPathCache after a solve.
inline constexpr std::size_t kWarmPathsPerCommodity = 32;

struct McfOptions {
  double epsilon = 0.05;     ///< FPTAS accuracy knob
  std::size_t max_phases = 10000;  ///< safety valve
  /// Fleischer-style batching: one Dijkstra tree per source node serves
  /// every active commodity sharing that source in the current round,
  /// cutting sp_calls by the source-fanout factor. The solution is still
  /// certified feasible by the final rescale; set false to reproduce the
  /// one-Dijkstra-per-augmentation schedule.
  bool batch_by_source = true;
  /// Optional cross-solve warm start (see McfPathCache): consumed and then
  /// rewritten by the solve. Honored only on the default batched schedule
  /// (batch_by_source) — the unbatched schedule ignores it. The cache must
  /// not be shared across concurrent solves.
  McfPathCache* warm_start = nullptr;
};

/// Solves max concurrent flow on `g` using edge capacities from the graph.
/// Commodities with zero demand are ignored. Edges with zero capacity are
/// unusable. Throws std::invalid_argument on malformed input.
McfResult max_concurrent_flow(const graph::Digraph& g, const std::vector<Commodity>& commodities,
                              const McfOptions& options = {});

/// Evaluates a *fixed* routing: each commodity fully routed along the given
/// per-commodity paths with the given split fractions. Returns the largest
/// lambda such that lambda * demands fit, plus per-edge loads at lambda = 1.
/// Used to realize coarse TE solutions on the fine graph (§4's restricted
/// search space) and by the capacity planner to compute utilizations.
struct FixedRoutingResult {
  double lambda = 0.0;
  std::vector<double> edge_load;  ///< load at lambda = 1
  double max_utilization = 0.0;   ///< max over edges of load/capacity
};

struct RoutedDemand {
  std::size_t commodity = 0;
  std::vector<graph::EdgeId> edges;
  double fraction = 1.0;  ///< share of the commodity's demand on this path
};

FixedRoutingResult evaluate_fixed_routing(const graph::Digraph& g,
                                          const std::vector<Commodity>& commodities,
                                          const std::vector<RoutedDemand>& routing);

/// Greedy admission along a fixed routing: commodities are processed in
/// order; each path admits as much of its share of the demand as residual
/// capacity allows. Returns total admitted Gbps. This "routable demand"
/// measure degrades smoothly as the routing quality drops, unlike the
/// max-concurrent lambda, which is pinned by the single worst link.
double greedy_admitted_demand(const graph::Digraph& g, const std::vector<Commodity>& commodities,
                              const std::vector<RoutedDemand>& routing);

}  // namespace smn::lp
