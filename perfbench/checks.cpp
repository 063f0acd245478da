// End-of-run correctness checks. They run after the last round's timed
// replay, on the system it left behind, and compare against what the
// benchmark computes from its own inputs or against properties the method
// must have.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bench.h"
#include "te/demand.h"
#include "te/failure_analysis.h"
#include "telemetry/forecast.h"

namespace perfbench {
namespace {

bool nearly_equal(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

}  // namespace

std::string mcf_infeasibility(const smn::graph::Digraph& g,
                              const std::vector<smn::lp::Commodity>& commodities,
                              const smn::lp::McfResult& result) {
  std::vector<double> edge_flow(g.edge_count(), 0.0);
  std::vector<double> routed(commodities.size(), 0.0);
  for (const smn::lp::PathFlow& path : result.paths) {
    if (path.commodity >= commodities.size()) return "path names an unknown commodity";
    for (const smn::graph::EdgeId e : path.edges) {
      if (e >= g.edge_count()) return "path names an unknown edge";
      edge_flow[e] += path.flow;
    }
    routed[path.commodity] += path.flow;
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const double capacity = g.edge(e).capacity;
    if (edge_flow[e] > capacity * (1.0 + 1e-9) + 1e-9) {
      return "edge " + std::to_string(e) + " carries " + std::to_string(edge_flow[e]) +
             " over capacity " + std::to_string(capacity);
    }
  }
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    const double need = result.lambda * commodities[j].demand;
    if (commodities[j].demand > 0.0 && routed[j] < need * (1.0 - 1e-9) - 1e-9) {
      return "commodity " + std::to_string(j) + " routed " + std::to_string(routed[j]) +
             " < lambda * demand " + std::to_string(need);
    }
  }
  return {};
}

void end_of_run_checks(const Spec& spec, const Inputs& in, System& system, Round& round) {
  smn::smn::SmnController& smn = *system.smn;
  const smn::topology::WanTopology& wan = *system.wan;
  smn::telemetry::BandwidthLogStore& store = smn.bandwidth_store();
  auto check = [&](bool ok, const std::string& what) {
    ++round.ops.check.attempted;
    if (ok) return;
    ++round.ops.check.failed;
    round.check_failures.push_back(what);
  };

  // MCF: the warm solve the next re-solve would run, from the
  // controller's path cache, is feasible by the benchmark's own flow sums.
  {
    const smn::telemetry::BandwidthLog recent = store.fine_range(0, spec.duration);
    smn::telemetry::ForecastOptions forecast_options;
    forecast_options.drift_level = store.drift().level;
    const std::vector<smn::lp::Commodity> commodities =
        smn::te::DemandMatrix::from_forecast(
            recent, static_cast<std::size_t>(smn::util::kDay / smn::util::kTelemetryEpoch),
            smn::telemetry::ForecastMethod::kEwma, forecast_options)
            .to_commodities(wan);
    smn::lp::McfPathCache cache = smn.te_path_cache();
    smn::lp::McfOptions options;
    options.epsilon = smn.adaptive().epsilon();
    options.warm_start = &cache;
    const smn::lp::McfResult warm = smn::lp::max_concurrent_flow(wan.graph(), commodities, options);
    const std::string bad = mcf_infeasibility(wan.graph(), commodities, warm);
    check(bad.empty() && warm.lambda > 0.0, "warm MCF: " + (bad.empty() ? "lambda 0" : bad));
  }

  // Failure sweep: the CH-backed sweep equals the flat-Dijkstra reference
  // on a fixed sample of failed links, and no stretch is below 1.
  {
    const std::vector<smn::lp::Commodity>& commodities = in.cycle_commodities.back();
    smn::te::RoutingSweepOptions options;
    options.threads = kFanoutThreads;
    const smn::te::RoutingSweepReport ch =
        smn::te::routing_failure_sweep(wan, commodities, in.sweep_check_links, options);
    options.use_ch = false;
    const smn::te::RoutingSweepReport flat =
        smn::te::routing_failure_sweep(wan, commodities, in.sweep_check_links, options);
    bool same = ch.pairs == flat.pairs && ch.impacts.size() == flat.impacts.size() &&
                ch.worst_stretch == flat.worst_stretch &&
                ch.worst_disconnected == flat.worst_disconnected;
    bool stretch_ok = ch.worst_stretch >= 1.0;
    for (std::size_t i = 0; same && i < ch.impacts.size(); ++i) {
      const smn::te::RoutingImpact& a = ch.impacts[i];
      const smn::te::RoutingImpact& b = flat.impacts[i];
      same = a.link == b.link && a.rerouted_pairs == b.rerouted_pairs &&
             a.disconnected_pairs == b.disconnected_pairs && a.mean_stretch == b.mean_stretch &&
             a.worst_stretch == b.worst_stretch;
      stretch_ok = stretch_ok && a.mean_stretch >= 1.0 && a.worst_stretch >= 1.0;
    }
    check(same, "CH failure sweep differs from the flat-Dijkstra sweep");
    check(stretch_ok, "failure sweep reports a stretch below 1");
  }

  // Seal every day, then the full horizon must still read back exactly the
  // generated records (spilled days included), and every (pair, hour)
  // summary must carry the input's count, sum, min and max.
  smn.run_retention(spec.duration + kMaxFineAge + smn::util::kDay);
  {
    const std::string bad = log_mismatch(store.fine_range(0, spec.duration + 1), in.total);
    check(bad.empty(), "full-horizon fine_range: " + bad);
  }
  {
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < in.pair_ids.size(); ++i) index.emplace(in.pair_ids[i], i);
    std::vector<bool> seen(in.window_digest.size(), false);
    std::size_t bad = 0;
    for (const smn::telemetry::WindowSummary& s : store.coarse().summaries()) {
      const auto it = index.find(s.pair);
      const auto hour = static_cast<std::size_t>(s.window_start / smn::util::kHour);
      if (it == index.end() || s.window_length != smn::util::kHour ||
          s.window_start % smn::util::kHour != 0 || hour >= in.hours) {
        ++bad;
        continue;
      }
      const std::size_t slot = it->second * in.hours + hour;
      const Digest& d = in.window_digest[slot];
      if (seen[slot] || s.sample_count != d.count || !nearly_equal(s.mean * d.count, d.sum) ||
          s.min != d.min || s.max != d.max) {
        ++bad;
      }
      seen[slot] = true;
    }
    for (std::size_t slot = 0; slot < seen.size(); ++slot) {
      if (!seen[slot] && in.window_digest[slot].count > 0) ++bad;
    }
    check(bad == 0, std::to_string(bad) + " coarse summaries differ from the input windows");
  }
}

}  // namespace perfbench
