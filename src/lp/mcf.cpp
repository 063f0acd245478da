#include "lp/mcf.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/contracts.h"

namespace smn::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Warm-start lookup key: NodeId is 32-bit, so an endpoint pair packs into
/// one 64-bit word.
std::uint64_t endpoint_key(graph::NodeId src, graph::NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint64_t>(dst);
}

/// A cached path survives into the current solve only if it is still a
/// contiguous src->dst walk over in-range, positive-capacity edges.
bool path_valid(const graph::Digraph& g, graph::NodeId src, graph::NodeId dst,
                const std::vector<graph::EdgeId>& path) {
  if (path.empty()) return false;
  graph::NodeId cursor = src;
  for (const graph::EdgeId e : path) {
    if (e >= g.edge_count()) return false;
    const graph::Edge& edge = g.edge(e);
    if (edge.from != cursor || edge.capacity <= 0.0) return false;
    cursor = edge.to;
  }
  return cursor == dst;
}

}  // namespace

McfResult max_concurrent_flow(const graph::Digraph& g, const std::vector<Commodity>& commodities,
                              const McfOptions& options) {
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0) {
    throw std::invalid_argument("max_concurrent_flow: epsilon must be in (0, 1)");
  }
  std::vector<std::size_t> active;
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    const Commodity& c = commodities[j];
    if (c.demand < 0.0) throw std::invalid_argument("max_concurrent_flow: negative demand");
    if (c.src >= g.node_count() || c.dst >= g.node_count()) {
      throw std::invalid_argument("max_concurrent_flow: commodity endpoint out of range");
    }
    if (c.demand > 0.0 && c.src != c.dst) active.push_back(j);
  }

  McfResult result;
  result.edge_flow.assign(g.edge_count(), 0.0);
  result.routed.assign(commodities.size(), 0.0);
  if (active.empty() || g.edge_count() == 0) {
    // Nothing to route (or nothing to route over): zero concurrent flow.
    result.lambda = 0.0;
    return result;
  }

  const double eps = options.epsilon;
  const auto m = static_cast<double>(g.edge_count());
  const double delta = std::pow(m / (1.0 - eps), -1.0 / eps);

  // Edge lengths are the multiplicative-weights duals; +inf disables
  // zero-capacity edges inside the Dijkstra. The dual objective
  // D(l) = sum_e c_e * l_e is maintained incrementally on every length
  // bump — no edge rescans after this initial pass.
  std::vector<double> length(g.edge_count(), 0.0);
  double dual = 0.0;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const double cap = g.edge(e).capacity;
    SMN_DCHECK(cap >= 0.0, "negative edge capacity reached the MCF oracle");
    length[e] = cap > 0.0 ? delta / cap : kInf;
    if (cap > 0.0) dual += cap * length[e];
  }

  // Raw (unscaled) flows accumulated across phases.
  std::vector<double> raw_edge_flow(g.edge_count(), 0.0);
  std::vector<double> raw_routed(commodities.size(), 0.0);
  struct RawPath {
    std::size_t commodity;
    std::vector<graph::EdgeId> edges;
    double flow;
  };
  std::vector<RawPath> raw_paths;
  raw_paths.reserve(active.size() * 8);  // avoid repeated growth reallocs

  bool some_routable = false;
  graph::DijkstraWorkspace workspace;
  // One adjacency snapshot serves every search this solve; the graph is
  // immutable here, only the length array evolves.
  const graph::CsrAdjacency csr(g);

  /// Sends one augmentation for commodity `j` along `path` (the bottleneck
  /// amount), bumps the traversed lengths, and accumulates the dual
  /// increment. Returns the amount sent; the caller records the path.
  const auto apply_flow = [&](std::size_t j, const std::vector<graph::EdgeId>& path,
                              double remaining) {
    some_routable = true;
    double bottleneck = remaining;
    for (const graph::EdgeId e : path) {
      bottleneck = std::min(bottleneck, g.edge(e).capacity);
    }
    for (const graph::EdgeId e : path) {
      const double cap = g.edge(e).capacity;
      raw_edge_flow[e] += bottleneck;
      const double old_len = length[e];
      length[e] = old_len * (1.0 + eps * bottleneck / cap);
      dual += cap * (length[e] - old_len);
    }
    raw_routed[j] += bottleneck;
    return bottleneck;
  };

  if (options.batch_by_source) {
    // Group active commodities by source (first-appearance order, members
    // in commodity order — the schedule is deterministic).
    struct SourceGroup {
      graph::NodeId src = graph::kInvalidNode;
      std::vector<std::size_t> members;
    };
    std::vector<SourceGroup> groups;
    {
      std::unordered_map<graph::NodeId, std::size_t> index;
      for (const std::size_t j : active) {
        const auto [it, inserted] = index.try_emplace(commodities[j].src, groups.size());
        if (inserted) groups.push_back({commodities[j].src, {}});
        groups[it->second].members.push_back(j);
      }
    }

    // Fleischer-style path caching: a commodity keeps routing along its
    // last path until that path's current length exceeds (1 + eps) times
    // the length it had when cached — only then does the group rebuild its
    // shortest-path tree. Each group keeps its own workspace so a tree
    // built in one phase keeps serving later phases until it actually goes
    // stale; every member re-caches off each rebuild, so one Dijkstra
    // absorbs the whole group's upcoming invalidations.
    std::vector<double> remaining(commodities.size(), 0.0);
    std::vector<std::vector<graph::EdgeId>> cached_path(commodities.size());
    std::vector<double> cached_len(commodities.size(), 0.0);
    std::vector<char> unreachable(commodities.size(), 0);
    // Index into raw_paths of the entry accumulating cached_path[j]'s flow;
    // consecutive augmentations along an unchanged path merge into it.
    constexpr std::size_t kNoEntry = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> path_entry(commodities.size(), kNoEntry);
    const auto path_length_now = [&length](const std::vector<graph::EdgeId>& path) {
      double total = 0.0;
      for (const graph::EdgeId e : path) total += length[e];
      return total;
    };
    std::vector<graph::DijkstraWorkspace> group_ws(groups.size());
    std::vector<std::vector<graph::NodeId>> group_targets(groups.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      for (const std::size_t j : groups[gi].members) {
        group_targets[gi].push_back(commodities[j].dst);
      }
    }

    // Rebuilds group gi's tree under the current lengths and re-caches every
    // member that is not already proven unreachable. The tree always covers
    // all member destinations (not just currently-open ones) because it may
    // outlive this phase. Reachability is static, so an empty path off a
    // fresh tree permanently retires that commodity (lambda will be 0).
    const auto rebuild_group = [&](std::size_t gi) {
      const SourceGroup& group = groups[gi];
      group_ws[gi].run(g, {.source = group.src,
                           .targets = &group_targets[gi],
                           .edge_length = &length,
                           .csr = &csr});
      ++result.sp_calls;
      for (const std::size_t t : group.members) {
        if (unreachable[t]) continue;
        group_ws[gi].path_into(g, group.src, commodities[t].dst, cached_path[t]);
        if (cached_path[t].empty()) {
          unreachable[t] = 1;
          remaining[t] = 0.0;
          continue;
        }
        cached_len[t] = path_length_now(cached_path[t]);
        path_entry[t] = kNoEntry;
      }
    };

    // Cross-solve warm start (McfPathCache): seed each cached commodity's
    // active path from the previous solve's surviving path set. Warm
    // commodities never touch the Dijkstra oracle — when their path goes
    // stale they re-select the currently-shortest cached alternative
    // instead of triggering a tree rebuild.
    McfPathCache* const warm = options.warm_start;
    std::vector<std::vector<std::vector<graph::EdgeId>>> warm_paths(
        warm != nullptr ? commodities.size() : 0);
    // Picks the cached alternative of commodity j that is shortest under the
    // current duals and makes it the active path.
    const auto warm_reselect = [&](std::size_t j) {
      std::size_t best = 0;
      double best_len = kInf;
      for (std::size_t p = 0; p < warm_paths[j].size(); ++p) {
        const double len = path_length_now(warm_paths[j][p]);
        if (len < best_len) {
          best_len = len;
          best = p;
        }
      }
      cached_path[j] = warm_paths[j][best];
      cached_len[j] = best_len;
      path_entry[j] = kNoEntry;
    };
    if (warm != nullptr) {
      warm->hits = warm->misses = warm->invalidated = 0;
      std::unordered_map<std::uint64_t, const McfPathCache::Entry*> by_endpoints;
      by_endpoints.reserve(warm->entries.size());
      for (const McfPathCache::Entry& entry : warm->entries) {
        by_endpoints.emplace(endpoint_key(entry.src, entry.dst), &entry);
      }
      for (const std::size_t j : active) {
        const Commodity& c = commodities[j];
        const auto it = by_endpoints.find(endpoint_key(c.src, c.dst));
        if (it != by_endpoints.end()) {
          for (const std::vector<graph::EdgeId>& path : it->second->paths) {
            if (path_valid(g, c.src, c.dst, path)) {
              warm_paths[j].push_back(path);
            } else {
              ++warm->invalidated;
            }
          }
        }
        if (warm_paths[j].empty()) {
          ++warm->misses;
          continue;
        }
        ++warm->hits;
        warm_reselect(j);
      }
      result.warm_hits = warm->hits;
      result.warm_misses = warm->misses;
    }

    // Phase index of each group's last tree rebuild (so a group rebuilds at
    // most once per phase; later invalidations in the same phase re-extract
    // from the existing — possibly slightly stale — tree, and a group whose
    // caches stay valid skips whole phases entirely).
    constexpr std::size_t kNeverBuilt = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> last_rebuild(groups.size(), kNeverBuilt);

    for (std::size_t phase = 0; phase < options.max_phases && dual < 1.0; ++phase) {
      bool phase_progress = false;
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const SourceGroup& group = groups[gi];
        for (const std::size_t j : group.members) {
          remaining[j] = unreachable[j] ? 0.0 : commodities[j].demand;
        }
        bool group_active = true;
        while (group_active && dual < 1.0) {
          group_active = false;
          for (const std::size_t j : group.members) {
            if (remaining[j] <= 0.0) continue;
            if (dual >= 1.0) break;
            if (cached_path[j].empty() ||
                path_length_now(cached_path[j]) > (1.0 + eps) * cached_len[j]) {
              if (warm != nullptr && !warm_paths[j].empty()) {
                // Warm commodity: swap to the currently-shortest cached
                // alternative instead of consulting the shortest-path
                // oracle. Every cached path has finite length (validated
                // positive capacities), so the commodity keeps augmenting
                // and the dual keeps growing — termination is unaffected.
                warm_reselect(j);
                ++result.warm_reselects;
              } else if (last_rebuild[gi] != phase) {
                rebuild_group(gi);
                last_rebuild[gi] = phase;
              } else {
                // Tree already rebuilt this phase: re-extract just j. The
                // group's trees always cover every member destination, so an
                // empty path still means permanently unreachable.
                group_ws[gi].path_into(g, group.src, commodities[j].dst, cached_path[j]);
                if (cached_path[j].empty()) {
                  unreachable[j] = 1;
                  remaining[j] = 0.0;
                  continue;
                }
                cached_len[j] = path_length_now(cached_path[j]);
                path_entry[j] = kNoEntry;
              }
              if (remaining[j] <= 0.0) continue;  // j itself was unreachable
            }
            // One augmentation per member per round keeps the schedule fair
            // (and matches the unbatched per-phase rotation).
            const double sent = apply_flow(j, cached_path[j], remaining[j]);
            remaining[j] -= sent;
            if (path_entry[j] == kNoEntry) {
              path_entry[j] = raw_paths.size();
              raw_paths.push_back({j, cached_path[j], sent});
            } else {
              raw_paths[path_entry[j]].flow += sent;
            }
            phase_progress = true;
            if (remaining[j] > 0.0) group_active = true;
          }
        }
      }
      // A full phase that routed nothing can never make progress later —
      // lengths only move when flow does. (All-zero-capacity graphs and
      // fully-disconnected demand sets hit this.)
      if (!phase_progress) break;
    }
  } else {
    // Legacy schedule: one Dijkstra per augmentation, per commodity.
    std::vector<graph::EdgeId> aug;
    for (std::size_t phase = 0; phase < options.max_phases && dual < 1.0; ++phase) {
      bool phase_progress = false;
      for (const std::size_t j : active) {
        double remaining = commodities[j].demand;
        while (remaining > 0.0 && dual < 1.0) {
          workspace.run(g, {.source = commodities[j].src,
                            .target = commodities[j].dst,
                            .edge_length = &length,
                            .csr = &csr});
          ++result.sp_calls;
          workspace.path_into(g, commodities[j].src, commodities[j].dst, aug);
          if (aug.empty()) break;  // disconnected commodity; lambda will be 0
          const double sent = apply_flow(j, aug, remaining);
          remaining -= sent;
          raw_paths.push_back({j, aug, sent});
          phase_progress = true;
        }
      }
      if (!phase_progress) break;
    }
  }

  if (!some_routable) {
    result.lambda = 0.0;
    return result;
  }

  // The raw flow may violate capacities by up to log_{1+eps}(1/delta);
  // instead of the analytic scale we certify feasibility directly.
  double scale = kInf;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (raw_edge_flow[e] > 0.0) {
      scale = std::min(scale, g.edge(e).capacity / raw_edge_flow[e]);
    }
  }
  if (scale == kInf) scale = 0.0;

  double lambda = kInf;
  for (const std::size_t j : active) {
    lambda = std::min(lambda, raw_routed[j] * scale / commodities[j].demand);
  }
  if (lambda == kInf) lambda = 0.0;

  result.lambda = lambda;
  SMN_CHECK(lambda >= 0.0, "certified lambda must be non-negative");
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    result.edge_flow[e] = raw_edge_flow[e] * scale;
    // The rescale certifies feasibility; a violation here means the scale
    // computation and the flow accumulation disagree on some edge.
    SMN_DCHECK(result.edge_flow[e] <= g.edge(e).capacity * (1.0 + 1e-9),
               "rescaled flow exceeds capacity");
  }
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    result.routed[j] = raw_routed[j] * scale;
    result.total_flow += result.routed[j];
  }
  result.paths.reserve(raw_paths.size());
  for (RawPath& p : raw_paths) {
    result.paths.push_back(PathFlow{p.commodity, std::move(p.edges), p.flow * scale});
  }

  if (options.warm_start != nullptr && options.batch_by_source) {
    // Rewrite the cache with this solve's own certified path set: per
    // commodity, up to kWarmPathsPerCommodity distinct paths, highest flow
    // first. Consumption stats (hits/misses/invalidated) are left intact
    // for the caller to read.
    McfPathCache& cache = *options.warm_start;
    cache.entries.clear();
    std::vector<std::vector<std::size_t>> by_commodity(commodities.size());
    for (std::size_t i = 0; i < result.paths.size(); ++i) {
      by_commodity[result.paths[i].commodity].push_back(i);
    }
    McfPathCache::Entry entry;
    for (const std::size_t j : active) {
      std::vector<std::size_t>& idx = by_commodity[j];
      if (idx.empty()) continue;
      std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return result.paths[a].flow > result.paths[b].flow;
      });
      entry.src = commodities[j].src;
      entry.dst = commodities[j].dst;
      for (const std::size_t i : idx) {
        if (entry.paths.size() >= kWarmPathsPerCommodity) break;
        const std::vector<graph::EdgeId>& path = result.paths[i].edges;
        if (std::find(entry.paths.begin(), entry.paths.end(), path) == entry.paths.end()) {
          entry.paths.push_back(path);
        }
      }
      cache.entries.push_back(std::move(entry));
      entry.paths.clear();
    }
  }
  return result;
}

FixedRoutingResult evaluate_fixed_routing(const graph::Digraph& g,
                                          const std::vector<Commodity>& commodities,
                                          const std::vector<RoutedDemand>& routing) {
  FixedRoutingResult result;
  result.edge_load.assign(g.edge_count(), 0.0);
  for (const RoutedDemand& r : routing) {
    const double amount = commodities.at(r.commodity).demand * r.fraction;
    for (const graph::EdgeId e : r.edges) result.edge_load.at(e) += amount;
  }
  double lambda = kInf;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const double cap = g.edge(e).capacity;
    if (result.edge_load[e] > 0.0) {
      if (cap <= 0.0) {
        lambda = 0.0;
      } else {
        lambda = std::min(lambda, cap / result.edge_load[e]);
        result.max_utilization = std::max(result.max_utilization, result.edge_load[e] / cap);
      }
    }
  }
  result.lambda = lambda == kInf ? 0.0 : lambda;
  return result;
}

double greedy_admitted_demand(const graph::Digraph& g, const std::vector<Commodity>& commodities,
                              const std::vector<RoutedDemand>& routing) {
  std::vector<double> residual(g.edge_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) residual[e] = g.edge(e).capacity;
  double admitted = 0.0;
  for (const RoutedDemand& r : routing) {
    const double want = commodities.at(r.commodity).demand * r.fraction;
    if (want <= 0.0) continue;
    double bottleneck = want;
    for (const graph::EdgeId e : r.edges) bottleneck = std::min(bottleneck, residual[e]);
    if (bottleneck <= 0.0) continue;
    for (const graph::EdgeId e : r.edges) residual[e] -= bottleneck;
    admitted += bottleneck;
  }
  return admitted;
}

}  // namespace smn::lp
