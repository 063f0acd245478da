#include "lp/mcf.h"

#include <gtest/gtest.h>

#include "topology/wan_generator.h"

namespace smn::lp {
namespace {

/// s -> t via two parallel 2-hop paths with capacities 10 and 5.
graph::Digraph two_path_graph() {
  graph::Digraph g;
  const auto s = g.add_node("s");
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto t = g.add_node("t");
  g.add_edge(s, a, 1.0, 10.0);
  g.add_edge(a, t, 1.0, 10.0);
  g.add_edge(s, b, 1.0, 5.0);
  g.add_edge(b, t, 1.0, 5.0);
  return g;
}

TEST(Mcf, SingleCommodityMaxFlow) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 30.0}};
  const McfResult result = max_concurrent_flow(g, demands, {.epsilon = 0.02});
  // Max flow is 15; demand 30 => lambda* = 0.5.
  EXPECT_GT(result.lambda, 0.45);
  EXPECT_LE(result.lambda, 0.5 + 1e-9);
}

TEST(Mcf, FullySatisfiableDemand) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 10.0}};
  const McfResult result = max_concurrent_flow(g, demands, {.epsilon = 0.02});
  EXPECT_GT(result.lambda, 1.3);  // 15/10 with slack for approximation
}

TEST(Mcf, SolutionIsCapacityFeasible) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 30.0}, {1, 3, 5.0}};
  const McfResult result = max_concurrent_flow(g, demands);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_LE(result.edge_flow[e], g.edge(e).capacity + 1e-9);
  }
}

TEST(Mcf, PathDecompositionMatchesEdgeFlows) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 30.0}};
  const McfResult result = max_concurrent_flow(g, demands);
  std::vector<double> reconstructed(g.edge_count(), 0.0);
  for (const PathFlow& p : result.paths) {
    for (const graph::EdgeId e : p.edges) reconstructed[e] += p.flow;
  }
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_NEAR(reconstructed[e], result.edge_flow[e], 1e-9);
  }
}

TEST(Mcf, RoutedMatchesLambdaTimesDemand) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 20.0}};
  const McfResult result = max_concurrent_flow(g, demands);
  EXPECT_GE(result.routed[0] + 1e-9, result.lambda * demands[0].demand);
}

TEST(Mcf, TwoCommoditySharedBottleneck) {
  // Both commodities cross one shared edge of capacity 10.
  graph::Digraph g;
  const auto s1 = g.add_node("s1");
  const auto s2 = g.add_node("s2");
  const auto m = g.add_node("m");
  const auto n = g.add_node("n");
  const auto t1 = g.add_node("t1");
  const auto t2 = g.add_node("t2");
  g.add_edge(s1, m, 1.0, 100.0);
  g.add_edge(s2, m, 1.0, 100.0);
  g.add_edge(m, n, 1.0, 10.0);  // bottleneck
  g.add_edge(n, t1, 1.0, 100.0);
  g.add_edge(n, t2, 1.0, 100.0);
  const std::vector<Commodity> demands = {{s1, t1, 10.0}, {s2, t2, 10.0}};
  const McfResult result = max_concurrent_flow(g, demands, {.epsilon = 0.02});
  // lambda* = 0.5 (10 units shared by 20 demanded).
  EXPECT_NEAR(result.lambda, 0.5, 0.05);
}

TEST(Mcf, DisconnectedCommodityGivesZeroLambda) {
  graph::Digraph g;
  g.add_node("a");
  g.add_node("b");
  g.add_node("c");
  g.add_edge(0, 1, 1.0, 10.0);
  const std::vector<Commodity> demands = {{0, 1, 5.0}, {0, 2, 5.0}};
  const McfResult result = max_concurrent_flow(g, demands);
  EXPECT_EQ(result.lambda, 0.0);
}

TEST(Mcf, ZeroDemandsIgnored) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 0.0}};
  const McfResult result = max_concurrent_flow(g, demands);
  EXPECT_EQ(result.lambda, 0.0);
  EXPECT_EQ(result.total_flow, 0.0);
}

TEST(Mcf, InvalidInputsThrow) {
  const graph::Digraph g = two_path_graph();
  EXPECT_THROW(max_concurrent_flow(g, {{0, 3, -1.0}}), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 99, 1.0}}), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 3, 1.0}}, {.epsilon = 0.0}), std::invalid_argument);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 3, 1.0}}, {.epsilon = 1.0}), std::invalid_argument);
}

TEST(Mcf, ApproximationWithinBoundOfExact) {
  // Exact optimum computable by hand: single commodity, series-parallel.
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 15.0}};  // lambda* = 1.0
  for (const double eps : {0.3, 0.1, 0.05}) {
    const McfResult result = max_concurrent_flow(g, demands, {.epsilon = eps});
    EXPECT_GE(result.lambda, (1.0 - 3.0 * eps)) << "eps=" << eps;
    EXPECT_LE(result.lambda, 1.0 + 1e-9);
  }
}

TEST(Mcf, TighterEpsilonNotWorse) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 30.0}, {1, 3, 4.0}};
  const double loose = max_concurrent_flow(g, demands, {.epsilon = 0.3}).lambda;
  const double tight = max_concurrent_flow(g, demands, {.epsilon = 0.03}).lambda;
  EXPECT_GE(tight, loose - 0.05);
}

TEST(Mcf, WorksOnGeneratedWan) {
  const topology::WanTopology wan = topology::generate_test_wan();
  std::vector<Commodity> demands;
  demands.push_back({0, static_cast<graph::NodeId>(wan.datacenter_count() - 1), 100.0});
  demands.push_back({1, static_cast<graph::NodeId>(wan.datacenter_count() - 2), 200.0});
  const McfResult result = max_concurrent_flow(wan.graph(), demands);
  EXPECT_GT(result.lambda, 0.0);
  EXPECT_GT(result.sp_calls, 0u);
  for (graph::EdgeId e = 0; e < wan.graph().edge_count(); ++e) {
    EXPECT_LE(result.edge_flow[e], wan.graph().edge(e).capacity + 1e-9);
  }
}

/// A WAN-sized instance with enough commodities that the warm-start cache
/// carries real structure.
std::vector<Commodity> wan_demands(const topology::WanTopology& wan) {
  std::vector<Commodity> demands;
  const auto n = static_cast<graph::NodeId>(wan.datacenter_count());
  for (graph::NodeId s = 0; s < n; ++s) {
    demands.push_back({s, static_cast<graph::NodeId>((s + 5) % n), 50.0 + 10.0 * s});
  }
  return demands;
}

TEST(McfWarmStart, EmptyCacheSolvesColdAndWritesBack) {
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::vector<Commodity> demands = wan_demands(wan);
  const McfResult cold = max_concurrent_flow(wan.graph(), demands, {.epsilon = 0.05});

  McfPathCache cache;
  McfOptions options;
  options.epsilon = 0.05;
  options.warm_start = &cache;
  const McfResult seeded = max_concurrent_flow(wan.graph(), demands, options);

  // An empty cache is all misses: the solve runs the cold schedule bit for
  // bit, then persists its own path set.
  EXPECT_EQ(seeded.lambda, cold.lambda);
  EXPECT_EQ(seeded.sp_calls, cold.sp_calls);
  EXPECT_EQ(seeded.edge_flow, cold.edge_flow);
  EXPECT_EQ(seeded.warm_hits, 0u);
  EXPECT_EQ(seeded.warm_misses, demands.size());
  EXPECT_EQ(cache.entries.size(), demands.size());
  for (const McfPathCache::Entry& entry : cache.entries) {
    EXPECT_FALSE(entry.paths.empty());
    EXPECT_LE(entry.paths.size(), kWarmPathsPerCommodity);
  }
}

TEST(McfWarmStart, WarmResolveMatchesColdObjectiveWithoutDijkstras) {
  const topology::WanTopology wan = topology::generate_test_wan();
  std::vector<Commodity> demands = wan_demands(wan);

  McfPathCache cache;
  McfOptions options;
  options.epsilon = 0.05;
  options.warm_start = &cache;
  max_concurrent_flow(wan.graph(), demands, options);

  // The re-solve the adaptive loop issues: same endpoints, shifted volumes.
  for (Commodity& c : demands) c.demand *= 2.0;
  const McfResult cold = max_concurrent_flow(wan.graph(), demands, {.epsilon = 0.05});
  McfPathCache warm_cache = cache;
  McfOptions warm_options = options;
  warm_options.warm_start = &warm_cache;
  const McfResult warm = max_concurrent_flow(wan.graph(), demands, warm_options);

  EXPECT_EQ(warm.warm_hits, demands.size());
  EXPECT_EQ(warm.warm_misses, 0u);
  EXPECT_EQ(warm.sp_calls, 0u);  // every oracle call answered from the cache
  // Restricting to cached paths costs at most the approximation slack.
  EXPECT_GE(warm.lambda, (1.0 - 2.0 * 0.05) * cold.lambda);
  for (graph::EdgeId e = 0; e < wan.graph().edge_count(); ++e) {
    EXPECT_LE(warm.edge_flow[e], wan.graph().edge(e).capacity + 1e-9);
  }

  // Warm solves are deterministic: a second run from the same seeded cache
  // reproduces the solve bit for bit.
  McfPathCache warm_cache2 = cache;
  McfOptions warm_options2 = options;
  warm_options2.warm_start = &warm_cache2;
  const McfResult again = max_concurrent_flow(wan.graph(), demands, warm_options2);
  EXPECT_EQ(again.lambda, warm.lambda);
  EXPECT_EQ(again.sp_calls, warm.sp_calls);
  EXPECT_EQ(again.edge_flow, warm.edge_flow);
}

TEST(McfWarmStart, StalePathsInvalidateAndNewCommoditiesFallBackCold) {
  const topology::WanTopology wan = topology::generate_test_wan();
  std::vector<Commodity> demands = wan_demands(wan);

  McfPathCache cache;
  McfOptions options;
  options.epsilon = 0.05;
  options.warm_start = &cache;
  max_concurrent_flow(wan.graph(), demands, options);

  // Rebuild the topology with one cached edge gone dark (revalidation must
  // drop every cached path over it) and add a commodity the cache has never
  // seen (it must fall back to the cold oracle) — the mixed re-solve the
  // adaptive loop issues after a partial topology/demand change.
  graph::Digraph pruned = wan.graph();
  ASSERT_FALSE(cache.entries.empty());
  ASSERT_FALSE(cache.entries.front().paths.empty());
  const graph::EdgeId dark = cache.entries.front().paths.front().front();
  pruned.mutable_edge(dark).capacity = 0.0;
  demands.push_back({0, 1, 42.0});  // wan_demands only emits (s, s+5) pairs

  McfPathCache pruned_cache = cache;
  McfOptions pruned_options = options;
  pruned_options.warm_start = &pruned_cache;
  const McfResult result = max_concurrent_flow(pruned, demands, pruned_options);
  EXPECT_GT(pruned_cache.invalidated, 0u);
  EXPECT_EQ(result.warm_misses, 1u);
  EXPECT_GT(result.sp_calls, 0u);  // the uncached commodity paid the cold cost
  EXPECT_EQ(result.warm_hits, demands.size() - 1);
  EXPECT_GT(result.lambda, 0.0);
  for (graph::EdgeId e = 0; e < pruned.edge_count(); ++e) {
    EXPECT_LE(result.edge_flow[e], pruned.edge(e).capacity + 1e-9);
  }
}

TEST(McfWarmStart, UnbatchedScheduleIgnoresTheCache) {
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::vector<Commodity> demands = wan_demands(wan);
  McfPathCache cache;
  McfOptions options;
  options.epsilon = 0.05;
  options.warm_start = &cache;
  max_concurrent_flow(wan.graph(), demands, options);
  ASSERT_FALSE(cache.entries.empty());

  // The one-Dijkstra-per-augmentation schedule neither reads the cache
  // (the solve is bit-equal to a cacheless one) nor rewrites it.
  McfOptions unbatched;
  unbatched.epsilon = 0.05;
  unbatched.batch_by_source = false;
  const McfResult cold = max_concurrent_flow(wan.graph(), demands, unbatched);
  McfPathCache untouched = cache;
  unbatched.warm_start = &untouched;
  const McfResult legacy = max_concurrent_flow(wan.graph(), demands, unbatched);
  EXPECT_EQ(legacy.warm_hits, 0u);
  EXPECT_EQ(legacy.warm_misses, 0u);
  EXPECT_EQ(legacy.warm_reselects, 0u);
  EXPECT_EQ(legacy.lambda, cold.lambda);
  EXPECT_EQ(legacy.sp_calls, cold.sp_calls);
  EXPECT_EQ(legacy.edge_flow, cold.edge_flow);
  ASSERT_EQ(untouched.entries.size(), cache.entries.size());
  for (std::size_t i = 0; i < cache.entries.size(); ++i) {
    EXPECT_EQ(untouched.entries[i].src, cache.entries[i].src);
    EXPECT_EQ(untouched.entries[i].dst, cache.entries[i].dst);
    EXPECT_EQ(untouched.entries[i].paths, cache.entries[i].paths);
  }
}

TEST(FixedRouting, ComputesLambdaAndUtilization) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 20.0}};
  // Route everything over the capacity-10 path.
  const std::vector<RoutedDemand> routing = {{0, {0, 1}, 1.0}};
  const FixedRoutingResult result = evaluate_fixed_routing(g, demands, routing);
  EXPECT_NEAR(result.lambda, 0.5, 1e-12);  // 10 / 20
  EXPECT_NEAR(result.max_utilization, 2.0, 1e-12);
  EXPECT_NEAR(result.edge_load[0], 20.0, 1e-12);
  EXPECT_NEAR(result.edge_load[2], 0.0, 1e-12);
}

TEST(FixedRouting, SplitRouting) {
  const graph::Digraph g = two_path_graph();
  const std::vector<Commodity> demands = {{0, 3, 12.0}};
  const std::vector<RoutedDemand> routing = {{0, {0, 1}, 2.0 / 3.0}, {0, {2, 3}, 1.0 / 3.0}};
  const FixedRoutingResult result = evaluate_fixed_routing(g, demands, routing);
  // Loads: 8 on cap-10 path, 4 on cap-5 path => lambda = min(10/8, 5/4).
  EXPECT_NEAR(result.lambda, 1.25, 1e-9);
}

TEST(FixedRouting, EmptyRoutingHasZeroLambda) {
  const graph::Digraph g = two_path_graph();
  const FixedRoutingResult result = evaluate_fixed_routing(g, {{0, 3, 5.0}}, {});
  EXPECT_EQ(result.lambda, 0.0);
  EXPECT_EQ(result.max_utilization, 0.0);
}

}  // namespace
}  // namespace smn::lp
