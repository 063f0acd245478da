#include "te/coarse_te.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>

#include "graph/shortest_path.h"
#include "topology/supernode.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace smn::te {
namespace {

// Wall-clock is used only for the solve-duration stats reported alongside
// results; it never feeds into routing or allocations.
// smn-lint: allow(nondeterminism)
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Shortest path restricted to edges inside one supernode; caches Dijkstra
/// trees per (group, source). Falls back to the unrestricted graph when the
/// group-internal subgraph is disconnected.
class IntraGroupRouter {
 public:
  IntraGroupRouter(const graph::Digraph& g, const graph::Partition& partition)
      : g_(g), partition_(partition) {}

  /// Edge path from `from` to `to` staying within `group` when possible.
  std::vector<graph::EdgeId> route(graph::NodeId group, graph::NodeId from, graph::NodeId to) {
    if (from == to) return {};
    const graph::ShortestPathTree& tree = tree_for(group, from);
    if (tree.distance[to] != std::numeric_limits<double>::infinity()) {
      return extract(tree, from, to);
    }
    // Fallback: unrestricted path (the fine network is connected even when
    // the supernode's internal subgraph is not).
    const auto path = graph::shortest_path(g_, from, to);
    return path ? path->edges : std::vector<graph::EdgeId>{};
  }

 private:
  const graph::ShortestPathTree& tree_for(graph::NodeId group, graph::NodeId source) {
    const auto key = std::make_pair(group, source);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const std::vector<bool>& mask = mask_for(group);
    return cache_.emplace(key, graph::dijkstra(g_, source, mask)).first->second;
  }

  const std::vector<bool>& mask_for(graph::NodeId group) {
    const auto it = masks_.find(group);
    if (it != masks_.end()) return it->second;
    std::vector<bool> mask(g_.edge_count(), false);
    for (graph::EdgeId e = 0; e < g_.edge_count(); ++e) {
      const graph::Edge& edge = g_.edge(e);
      mask[e] = partition_.group_of[edge.from] == group && partition_.group_of[edge.to] == group;
    }
    return masks_.emplace(group, std::move(mask)).first->second;
  }

  std::vector<graph::EdgeId> extract(const graph::ShortestPathTree& tree, graph::NodeId from,
                                     graph::NodeId to) const {
    std::vector<graph::EdgeId> edges;
    for (graph::NodeId node = to; node != from;) {
      const graph::EdgeId e = tree.parent_edge[node];
      edges.push_back(e);
      node = g_.edge(e).from;
    }
    std::reverse(edges.begin(), edges.end());
    return edges;
  }

  const graph::Digraph& g_;
  const graph::Partition& partition_;
  std::map<graph::NodeId, std::vector<bool>> masks_;
  std::map<std::pair<graph::NodeId, graph::NodeId>, graph::ShortestPathTree> cache_;
};

}  // namespace

std::vector<lp::Commodity> aggregate_commodities(
    const topology::WanTopology& fine, const graph::Partition& partition,
    const std::vector<lp::Commodity>& fine_commodities) {
  if (!partition.valid_for(fine.graph())) {
    throw std::invalid_argument("aggregate_commodities: invalid partition");
  }
  std::map<std::pair<graph::NodeId, graph::NodeId>, double> sums;
  for (const lp::Commodity& c : fine_commodities) {
    SMN_DCHECK(c.src < partition.group_of.size() && c.dst < partition.group_of.size(),
               "commodity endpoint outside the partitioned node range");
    const graph::NodeId gs = partition.group_of[c.src];
    const graph::NodeId gd = partition.group_of[c.dst];
    if (gs == gd) continue;
    sums[{gs, gd}] += c.demand;
  }
  std::vector<lp::Commodity> coarse;
  coarse.reserve(sums.size());
  for (const auto& [key, demand] : sums) {
    coarse.push_back(lp::Commodity{key.first, key.second, demand});
  }
  return coarse;
}

std::vector<lp::RoutedDemand> routing_from_mcf(const graph::Digraph& g,
                                               const lp::McfResult& solution,
                                               const std::vector<lp::Commodity>& commodities) {
  std::vector<double> routed_total(commodities.size(), 0.0);
  for (const lp::PathFlow& pf : solution.paths) {
    SMN_DCHECK(pf.commodity < commodities.size(),
               "path flow references a commodity outside the solve");
    routed_total[pf.commodity] += pf.flow;
  }
  std::vector<lp::RoutedDemand> routing;
  std::vector<bool> covered(commodities.size(), false);
  for (const lp::PathFlow& pf : solution.paths) {
    if (routed_total[pf.commodity] <= 0.0) continue;
    covered[pf.commodity] = true;
    routing.push_back(
        lp::RoutedDemand{pf.commodity, pf.edges, pf.flow / routed_total[pf.commodity]});
  }
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    if (covered[j] || commodities[j].demand <= 0.0 || commodities[j].src == commodities[j].dst) {
      continue;
    }
    const auto path = graph::shortest_path(g, commodities[j].src, commodities[j].dst);
    if (path) routing.push_back(lp::RoutedDemand{j, path->edges, 1.0});
  }
  return routing;
}

lp::FixedRoutingResult realize_coarse_solution(
    const topology::WanTopology& fine, const graph::Partition& partition,
    const topology::WanTopology& coarse, const lp::McfResult& coarse_solution,
    const std::vector<lp::Commodity>& fine_commodities,
    const std::vector<lp::Commodity>& coarse_commodities,
    std::vector<lp::RoutedDemand>* routing_out) {
  const graph::Digraph& fg = fine.graph();
  const graph::Digraph& cg = coarse.graph();

  // Corridors: coarse edge -> fine edges crossing that group pair, with the
  // capacity-share weights used to spread crossing load, plus the primary
  // (max-capacity) corridor edge used to anchor intra-group stitching.
  struct Corridor {
    std::vector<std::pair<graph::EdgeId, double>> members;  // (fine edge, share)
    graph::EdgeId primary = graph::kInvalidEdge;
  };
  std::vector<Corridor> corridors(cg.edge_count());
  for (graph::EdgeId e = 0; e < fg.edge_count(); ++e) {
    const graph::Edge& edge = fg.edge(e);
    const graph::NodeId ga = partition.group_of[edge.from];
    const graph::NodeId gb = partition.group_of[edge.to];
    if (ga == gb) continue;
    const auto ce = cg.find_edge(ga, gb);
    if (!ce) continue;
    corridors[*ce].members.emplace_back(e, edge.capacity);
  }
  for (Corridor& corridor : corridors) {
    double total = 0.0;
    double best = -1.0;
    for (const auto& [e, cap] : corridor.members) {
      total += cap;
      if (cap > best) {
        best = cap;
        corridor.primary = e;
      }
    }
    if (total > 0.0) {
      for (auto& [e, share] : corridor.members) share /= total;
    }
  }

  // Per coarse commodity: its path decomposition as fractions.
  struct CoarsePathShare {
    std::vector<graph::EdgeId> coarse_edges;
    double fraction = 0.0;
  };
  std::vector<std::vector<CoarsePathShare>> shares(coarse_commodities.size());
  {
    std::vector<double> routed_total(coarse_commodities.size(), 0.0);
    for (const lp::PathFlow& pf : coarse_solution.paths) {
      routed_total[pf.commodity] += pf.flow;
    }
    for (const lp::PathFlow& pf : coarse_solution.paths) {
      if (routed_total[pf.commodity] <= 0.0) continue;
      shares[pf.commodity].push_back(
          CoarsePathShare{pf.edges, pf.flow / routed_total[pf.commodity]});
    }
    // Commodities the coarse solver routed nothing for fall back to the
    // coarse shortest path.
    for (std::size_t j = 0; j < coarse_commodities.size(); ++j) {
      if (!shares[j].empty()) continue;
      const auto path = graph::shortest_path(cg, coarse_commodities[j].src,
                                             coarse_commodities[j].dst);
      if (path) shares[j].push_back(CoarsePathShare{path->edges, 1.0});
    }
  }

  // Index coarse commodities by group pair.
  std::map<std::pair<graph::NodeId, graph::NodeId>, std::size_t> coarse_index;
  for (std::size_t j = 0; j < coarse_commodities.size(); ++j) {
    coarse_index[{coarse_commodities[j].src, coarse_commodities[j].dst}] = j;
  }

  IntraGroupRouter router(fg, partition);
  std::vector<double> load(fg.edge_count(), 0.0);

  const auto charge_path = [&](const std::vector<graph::EdgeId>& edges, double amount) {
    for (const graph::EdgeId e : edges) load[e] += amount;
  };

  // Reused across shares (cleared per share; std::move below leaves it
  // valid-but-unspecified, which clear() restores).
  std::vector<graph::EdgeId> explicit_path;
  for (std::size_t j = 0; j < fine_commodities.size(); ++j) {
    const lp::Commodity& c = fine_commodities[j];
    if (c.demand <= 0.0 || c.src == c.dst) continue;
    const graph::NodeId gs = partition.group_of[c.src];
    const graph::NodeId gd = partition.group_of[c.dst];
    if (gs == gd) {
      // Invisible to the coarse optimizer: default shortest-path routing.
      const auto path = graph::shortest_path(fg, c.src, c.dst);
      if (path) {
        charge_path(path->edges, c.demand);
        if (routing_out != nullptr) {
          routing_out->push_back(lp::RoutedDemand{j, path->edges, 1.0});
        }
      }
      continue;
    }
    const auto it = coarse_index.find({gs, gd});
    if (it == coarse_index.end()) continue;  // no coarse demand => dropped
    for (const CoarsePathShare& share : shares[it->second]) {
      const double amount = c.demand * share.fraction;
      if (amount <= 0.0) continue;
      graph::NodeId current = c.src;
      bool ok = true;
      explicit_path.clear();
      for (const graph::EdgeId ce : share.coarse_edges) {
        const Corridor& corridor = corridors[ce];
        if (corridor.primary == graph::kInvalidEdge) {
          ok = false;
          break;
        }
        // Intra-group leg to the primary corridor head.
        const graph::Edge& primary = fg.edge(corridor.primary);
        const graph::NodeId group = partition.group_of[current];
        const auto leg = router.route(group, current, primary.from);
        charge_path(leg, amount);
        explicit_path.insert(explicit_path.end(), leg.begin(), leg.end());
        // Crossing load spread across corridor members by capacity share;
        // the explicit path anchors at the primary link.
        for (const auto& [e, member_share] : corridor.members) {
          load[e] += amount * member_share;
        }
        explicit_path.push_back(corridor.primary);
        current = primary.to;
      }
      if (!ok) continue;
      // Final intra-group leg to the destination.
      const auto last_leg = router.route(partition.group_of[current], current, c.dst);
      charge_path(last_leg, amount);
      if (routing_out != nullptr) {
        explicit_path.insert(explicit_path.end(), last_leg.begin(), last_leg.end());
        routing_out->push_back(lp::RoutedDemand{j, std::move(explicit_path), share.fraction});
      }
    }
  }

  lp::FixedRoutingResult result;
  result.edge_load = std::move(load);
  double lambda = std::numeric_limits<double>::infinity();
  for (graph::EdgeId e = 0; e < fg.edge_count(); ++e) {
    if (result.edge_load[e] <= 0.0) continue;
    const double cap = fg.edge(e).capacity;
    if (cap <= 0.0) {
      lambda = 0.0;
    } else {
      lambda = std::min(lambda, cap / result.edge_load[e]);
      result.max_utilization = std::max(result.max_utilization, result.edge_load[e] / cap);
    }
  }
  result.lambda = lambda == std::numeric_limits<double>::infinity() ? 0.0 : lambda;
  return result;
}

CoarseTeReport evaluate_coarse_te(const topology::WanTopology& fine,
                                  const graph::Partition& partition,
                                  const std::vector<lp::Commodity>& fine_commodities,
                                  const TeOptions& options) {
  if (!partition.valid_for(fine.graph())) {
    throw std::invalid_argument("evaluate_coarse_te: invalid partition");
  }
  CoarseTeReport report;
  report.supernode_count = partition.group_count();
  report.fine_commodities = fine_commodities.size();

  lp::McfOptions mcf_options;
  mcf_options.epsilon = options.epsilon;

  // Coarse inputs are cheap to derive; build them up front so the two MCF
  // solves — fine-grained optimum and coarse pipeline — are independent
  // tasks that can run concurrently on the pool.
  const topology::WanTopology coarse =
      topology::SupernodeCoarsener::coarsen_with_partition(fine, partition);
  const std::vector<lp::Commodity> coarse_commodities =
      aggregate_commodities(fine, partition, fine_commodities);
  report.coarse_commodities = coarse_commodities.size();
  report.topology_reduction = coarse.size_measure() > 0
                                  ? static_cast<double>(fine.size_measure()) /
                                        static_cast<double>(coarse.size_measure())
                                  : 0.0;
  report.demand_reduction = coarse_commodities.empty()
                                ? 0.0
                                : static_cast<double>(fine_commodities.size()) /
                                      static_cast<double>(coarse_commodities.size());

  lp::McfResult fine_solution;
  lp::McfResult coarse_solution;
  const auto solve_fine = [&] {
    const auto start = Clock::now();
    fine_solution = lp::max_concurrent_flow(fine.graph(), fine_commodities, mcf_options);
    report.fine_solve_ms = elapsed_ms(start);
  };
  const auto solve_coarse = [&] {
    const auto start = Clock::now();
    coarse_solution = lp::max_concurrent_flow(coarse.graph(), coarse_commodities, mcf_options);
    report.coarse_solve_ms = elapsed_ms(start);
  };
  if (options.threads > 1 || options.threads == 0) {
    util::ThreadPool pool(std::min<std::size_t>(
        2, options.threads == 0 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                                : options.threads));
    auto fine_done = pool.submit(solve_fine);
    auto coarse_done = pool.submit(solve_coarse);
    fine_done.get();
    coarse_done.get();
  } else {
    solve_fine();
    solve_coarse();
  }
  report.lambda_fine = fine_solution.lambda;
  report.fine_sp_calls = fine_solution.sp_calls;
  report.lambda_coarse_nominal = coarse_solution.lambda;
  report.coarse_sp_calls = coarse_solution.sp_calls;

  std::vector<lp::RoutedDemand> realized_routing;
  const lp::FixedRoutingResult realized =
      realize_coarse_solution(fine, partition, coarse, coarse_solution, fine_commodities,
                              coarse_commodities, &realized_routing);
  report.lambda_realized = realized.lambda;
  report.fidelity =
      report.lambda_fine > 0.0 ? std::min(1.0, report.lambda_realized / report.lambda_fine) : 0.0;

  // Smoother fidelity: greedily admittable demand under each routing.
  const std::vector<lp::RoutedDemand> fine_routing =
      routing_from_mcf(fine.graph(), fine_solution, fine_commodities);
  report.admitted_fine_gbps =
      lp::greedy_admitted_demand(fine.graph(), fine_commodities, fine_routing);
  report.admitted_realized_gbps =
      lp::greedy_admitted_demand(fine.graph(), fine_commodities, realized_routing);
  report.throughput_fidelity =
      report.admitted_fine_gbps > 0.0
          ? std::min(1.0, report.admitted_realized_gbps / report.admitted_fine_gbps)
          : 0.0;
  return report;
}

namespace {

/// The induced subgraph of one region plus the maps back to the fine graph.
struct RegionSubgraph {
  graph::Digraph g;
  std::vector<graph::NodeId> local_of;      ///< fine node -> local (or kInvalidNode)
  std::vector<graph::EdgeId> fine_edge_of;  ///< local edge -> fine edge
  std::vector<std::size_t> commodities;     ///< fine commodity indexes inside
};

/// Builds each region's induced subgraph (internal nodes and edges only)
/// and buckets the intra-region commodities into it.
std::vector<RegionSubgraph> region_subgraphs(const topology::WanTopology& fine,
                                             const graph::Partition& partition,
                                             const std::vector<lp::Commodity>& commodities) {
  const graph::Digraph& fg = fine.graph();
  std::vector<RegionSubgraph> regions(partition.group_count());
  for (RegionSubgraph& region : regions) {
    region.local_of.assign(fg.node_count(), graph::kInvalidNode);
  }
  for (graph::NodeId n = 0; n < fg.node_count(); ++n) {
    RegionSubgraph& region = regions[partition.group_of[n]];
    region.local_of[n] = region.g.add_node(fg.node_name(n));
  }
  for (graph::EdgeId e = 0; e < fg.edge_count(); ++e) {
    const graph::Edge& edge = fg.edge(e);
    const graph::NodeId group = partition.group_of[edge.from];
    if (group != partition.group_of[edge.to]) continue;
    RegionSubgraph& region = regions[group];
    region.g.add_edge(region.local_of[edge.from], region.local_of[edge.to], edge.weight,
                      edge.capacity);
    region.fine_edge_of.push_back(e);
  }
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    const lp::Commodity& c = commodities[j];
    if (c.demand <= 0.0 || c.src == c.dst) continue;
    const graph::NodeId group = partition.group_of[c.src];
    if (group != partition.group_of[c.dst]) continue;
    regions[group].commodities.push_back(j);
  }
  return regions;
}

}  // namespace

FederatedTeReport evaluate_federated_te(const topology::WanTopology& fine,
                                        const graph::Partition& partition,
                                        const std::vector<lp::Commodity>& fine_commodities,
                                        const FederatedTeOptions& options) {
  if (!partition.valid_for(fine.graph())) {
    throw std::invalid_argument("evaluate_federated_te: invalid partition");
  }
  FederatedTeReport report;
  report.regions = partition.group_count();
  report.fine_commodities = fine_commodities.size();

  lp::McfOptions mcf_options;
  mcf_options.epsilon = options.epsilon;

  // Flat single-controller reference: what one controller seeing every fine
  // commodity at once would solve. Timed on its own so the federated leg's
  // wall-clock can be gated against it.
  std::vector<lp::RoutedDemand> flat_routing;
  if (options.solve_flat) {
    const auto start = Clock::now();
    const lp::McfResult flat =
        lp::max_concurrent_flow(fine.graph(), fine_commodities, mcf_options);
    report.flat_solve_ms = elapsed_ms(start);
    report.lambda_flat = flat.lambda;
    report.flat_sp_calls = flat.sp_calls;
    flat_routing = routing_from_mcf(fine.graph(), flat, fine_commodities);
    report.admitted_flat_gbps =
        lp::greedy_admitted_demand(fine.graph(), fine_commodities, flat_routing);
  }

  const auto federated_start = Clock::now();

  // Global tier: the coarse inter-region graph is all the global controller
  // sees. It has one node per region, so the flat oracle every other solve
  // uses is also the right one here.
  const topology::WanTopology coarse =
      topology::SupernodeCoarsener::coarsen_with_partition(fine, partition);
  const std::vector<lp::Commodity> coarse_commodities =
      aggregate_commodities(fine, partition, fine_commodities);
  report.coarse_commodities = coarse_commodities.size();

  lp::McfResult global_solution;
  {
    const auto start = Clock::now();
    global_solution = lp::max_concurrent_flow(coarse.graph(), coarse_commodities, mcf_options);
    report.global_solve_ms = elapsed_ms(start);
  }
  report.lambda_global_nominal = global_solution.lambda;
  report.global_sp_calls = global_solution.sp_calls;

  // Realize the global solution on the fine graph: inter-region traffic
  // follows the chosen corridors; intra-region traffic gets the
  // shortest-path default the refinement step below replaces.
  std::vector<lp::RoutedDemand> realized_routing;
  realize_coarse_solution(fine, partition, coarse, global_solution, fine_commodities,
                          coarse_commodities, &realized_routing);

  // Regional refinement: each region re-solves its intra-region commodities
  // as an independent MCF on its induced subgraph. Results land in
  // per-region slots, so assembly below is thread-count independent.
  std::vector<RegionSubgraph> regions =
      region_subgraphs(fine, partition, fine_commodities);
  struct Refinement {
    std::vector<lp::RoutedDemand> routing;  ///< fine commodity ids, fine edges
    std::size_t sp_calls = 0;
    double solve_ms = 0.0;
  };
  std::vector<Refinement> refinements(regions.size());
  const auto refine_region = [&](std::size_t r) {
    const RegionSubgraph& region = regions[r];
    if (region.commodities.empty()) return;
    std::vector<lp::Commodity> local(region.commodities.size());
    for (std::size_t i = 0; i < region.commodities.size(); ++i) {
      const lp::Commodity& c = fine_commodities[region.commodities[i]];
      local[i] = lp::Commodity{region.local_of[c.src], region.local_of[c.dst], c.demand};
    }
    const auto start = Clock::now();
    const lp::McfResult solution = lp::max_concurrent_flow(region.g, local, mcf_options);
    Refinement& out = refinements[r];
    out.solve_ms = elapsed_ms(start);
    out.sp_calls = solution.sp_calls;
    for (lp::RoutedDemand route : routing_from_mcf(region.g, solution, local)) {
      route.commodity = region.commodities[route.commodity];
      for (graph::EdgeId& e : route.edges) e = region.fine_edge_of[e];
      out.routing.push_back(std::move(route));
    }
  };
  const std::size_t threads =
      options.threads == 0 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                           : options.threads;
  if (threads <= 1 || regions.size() <= 1) {
    for (std::size_t r = 0; r < regions.size(); ++r) refine_region(r);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(0, regions.size(), refine_region);
  }

  // Assemble the federated routing: refined intra-region routes replace the
  // realization's shortest-path default; everything else keeps its realized
  // entries. Emission is by ascending commodity, so the routing — and every
  // non-timing report field — is deterministic.
  std::vector<std::vector<lp::RoutedDemand>> by_commodity(fine_commodities.size());
  for (lp::RoutedDemand& route : realized_routing) {
    const std::size_t j = route.commodity;
    by_commodity[j].push_back(std::move(route));
  }
  // Each commodity is intra to exactly one region, so refined routes can
  // collect into one shared per-commodity table without collisions.
  std::vector<std::vector<lp::RoutedDemand>> refined_by_commodity(fine_commodities.size());
  for (Refinement& refinement : refinements) {
    report.refine_sp_calls += refinement.sp_calls;
    report.refine_solve_ms += refinement.solve_ms;
    for (lp::RoutedDemand& route : refinement.routing) {
      refined_by_commodity[route.commodity].push_back(std::move(route));
    }
  }
  for (std::size_t j = 0; j < refined_by_commodity.size(); ++j) {
    if (refined_by_commodity[j].empty()) continue;  // unroutable locally: keep the fallback
    ++report.refined_commodities;
    by_commodity[j] = std::move(refined_by_commodity[j]);
  }
  std::vector<lp::RoutedDemand> federated_routing;
  for (std::size_t j = 0; j < by_commodity.size(); ++j) {
    for (lp::RoutedDemand& route : by_commodity[j]) {
      federated_routing.push_back(std::move(route));
    }
  }

  const lp::FixedRoutingResult federated =
      lp::evaluate_fixed_routing(fine.graph(), fine_commodities, federated_routing);
  report.lambda_federated = federated.lambda;
  report.admitted_federated_gbps =
      lp::greedy_admitted_demand(fine.graph(), fine_commodities, federated_routing);
  report.federated_total_ms = elapsed_ms(federated_start);
  report.throughput_fidelity =
      report.admitted_flat_gbps > 0.0
          ? std::min(1.0, report.admitted_federated_gbps / report.admitted_flat_gbps)
          : 0.0;
  return report;
}

std::vector<CoarseTeReport> evaluate_coarse_te_windows(
    const topology::WanTopology& fine, const graph::Partition& partition,
    const std::vector<std::vector<lp::Commodity>>& window_commodities,
    const TeOptions& options) {
  std::vector<CoarseTeReport> reports(window_commodities.size());
  // Parallelism lives at the window fan-out; each per-window evaluation
  // runs serially so workers never nest pools.
  TeOptions window_options = options;
  window_options.threads = 1;
  const auto solve_window = [&](std::size_t i) {
    reports[i] = evaluate_coarse_te(fine, partition, window_commodities[i], window_options);
  };
  const std::size_t threads =
      options.threads == 0 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                           : options.threads;
  if (threads <= 1 || reports.size() <= 1) {
    for (std::size_t i = 0; i < reports.size(); ++i) solve_window(i);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(0, reports.size(), solve_window);
  }
  return reports;
}

}  // namespace smn::te
