// The timed part of the benchmark: setup, and one replay round that drives
// the SmnController through a workload's sim-time schedule. Every timed
// interval is one call into a public function, measured from outside. On a
// traced round, probe calls into the lower layers run beside each call on
// the same inputs (never inside its interval) and spans are recorded.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.h"
#include "capacity/capacity_planner.h"
#include "depgraph/reddit.h"
#include "graph/ch.h"
#include "incident/features.h"
#include "te/demand.h"
#include "te/failure_analysis.h"
#include "telemetry/forecast.h"

namespace perfbench {
namespace {

using smn::util::kHour;
using smn::util::kMinute;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kMaxReportedFailures = 8;

smn::smn::SmnConfig controller_config(const std::string& spill_dir) {
  smn::smn::SmnConfig config;  // CLTO (CDG + routing forest) at paper defaults
  config.bw_ingest_threads = kIngestThreads;
  config.bw_spill_dir = spill_dir;
  config.bw_max_fine_age = kMaxFineAge;
  // The replay calls retention and planning on its own schedule; their
  // control loops only run at the first tick.
  config.retention_loop_period = smn::util::kYear;
  config.planning_loop_period = smn::util::kYear;
  return config;
}

/// Records spans when tracing is on; a no-op otherwise.
class Tracer {
 public:
  Tracer(std::vector<Span>* spans, Clock::time_point epoch) : spans_(spans), epoch_(epoch) {}

  std::uint32_t record(std::uint32_t parent, const char* name, Clock::time_point a,
                       Clock::time_point b) {
    if (spans_ == nullptr) return 0;
    const auto id = static_cast<std::uint32_t>(spans_->size() + 1);
    spans_->push_back({id, parent, name, us(a), us(b)});
    return id;
  }

  void set_end(std::uint32_t id, Clock::time_point b) {
    if (spans_ != nullptr && id != 0) (*spans_)[id - 1].end_us = us(b);
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  std::vector<Span>* spans_;
  Clock::time_point epoch_;
};

}  // namespace

std::string log_mismatch(const smn::telemetry::BandwidthLog& log, const Digest& expected) {
  Digest got;
  const auto ts = log.timestamps();
  const auto ids = log.pair_ids();
  const auto bw = log.bandwidths();
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    if (i > 0 && ts[i - 1] > ts[i]) return "records out of time order";
    got.add(ts[i], ids[i], bw[i]);
  }
  if (got.count != expected.count) {
    return "returned " + std::to_string(got.count) + " records, expected " +
           std::to_string(expected.count);
  }
  if (got.hash != expected.hash) return "record checksum differs from the input";
  return {};
}

System::~System() {
  global.reset();
  smn.reset();
  std::error_code ec;
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir, ec);
}

std::unique_ptr<System> setup(const Spec& spec, const std::string& spill_dir,
                              SetupTimes* times) {
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
  auto sys = std::make_unique<System>();
  sys->spill_dir = spill_dir;
  const auto t0 = Clock::now();
  sys->wan = std::make_unique<smn::topology::WanTopology>(
      smn::topology::generate_planetary_wan(spec.wan));
  const auto t1 = Clock::now();
  sys->services =
      std::make_unique<smn::depgraph::ServiceGraph>(smn::depgraph::build_reddit_deployment());
  const auto t2 = Clock::now();
  sys->smn = std::make_unique<smn::smn::SmnController>(*sys->services, *sys->wan,
                                                       controller_config(spill_dir));
  const auto t3 = Clock::now();
  sys->global = std::make_unique<smn::smn::GlobalController>(*sys->wan);
  const auto t4 = Clock::now();
  times->wan_ms = ms_between(t0, t1);
  times->services_ms = ms_between(t1, t2);
  times->controller_ms = ms_between(t2, t3);
  times->global_ms = ms_between(t3, t4);
  times->total_s = ms_between(t0, t4) / 1000.0;
  return sys;
}

Round replay_round(const Spec& spec, const Inputs& in, const std::string& spill_dir,
                   const RoundOptions& options, std::unique_ptr<System>* system) {
  Round r;
  Layers& L = r.layers;
  Tracer tracer(options.traced ? options.spans : nullptr, options.epoch);
  const bool traced = options.traced;

  std::unique_ptr<System> sys = setup(spec, spill_dir, &r.setup);
  smn::smn::SmnController& smn = *sys->smn;
  const smn::topology::WanTopology& wan = *sys->wan;
  L.wan_build_ms = r.setup.wan_ms;
  L.controller_build_ms = r.setup.controller_ms;

  smn::te::FederatedTeOptions fed_options;
  fed_options.threads = kFanoutThreads;
  fed_options.solve_flat = false;  // the flat reference solve is not part of the controller's job
  smn::te::RoutingSweepOptions sweep_options;
  sweep_options.threads = kFanoutThreads;

  auto fail_check = [&](std::string what) {
    ++r.ops.check.failed;
    if (r.check_failures.size() < kMaxReportedFailures) r.check_failures.push_back(std::move(what));
  };
  // Warm-start gate, before the replay so its memory is not in the
  // replay's peak: each gate's warm solve, from the cache the previous one
  // left, must reach kWarmMinRatio of its cold lambda. A miss is a failed
  // operation, not a failed check: it is a property the method should have
  // and the program lacks today (see README.md), the same on every seed
  // and round.
  {
    smn::lp::McfPathCache cache = in.gate_cache;
    for (const WarmGate& gate : in.gates) {
      ++r.ops.warm_gate.attempted;
      smn::lp::McfOptions mcf;
      mcf.epsilon = in.gate_epsilon;
      mcf.warm_start = &cache;
      const smn::lp::McfResult warm =
          smn::lp::max_concurrent_flow(wan.graph(), gate.demand, mcf);
      r.gate_ratios.push_back(warm.lambda / gate.cold_lambda);
      if (!(warm.lambda >= kWarmMinRatio * gate.cold_lambda)) ++r.ops.warm_gate.failed;
      ++r.ops.check.attempted;
      const std::string bad = mcf_infeasibility(wan.graph(), gate.demand, warm);
      if (!bad.empty()) fail_check("warm-start gate MCF: " + bad);
    }
  }
  const auto round_start = Clock::now();
  const std::uint32_t root = tracer.record(0, "replay_round", round_start, round_start);
  double paused_ms = 0.0;  // bench-side checks and probes, excluded from replay_s

  // One timed call into the system; returns its wall in ms, or nothing when
  // it threw (counted as a failed operation).
  std::uint32_t last_span = 0;
  auto call = [&](OpCount& op, const char* name, auto&& body) -> std::optional<double> {
    ++op.attempted;
    bool ok = true;
    const auto a = Clock::now();
    try {
      body();
    } catch (const std::exception& e) {
      ok = false;
      std::fprintf(stderr, "%s failed: %s\n", name, e.what());
    }
    const auto b = Clock::now();
    last_span = tracer.record(root, name, a, b);
    const double ms = ms_between(a, b);
    r.calls_ms += ms;
    if (!ok) {
      ++op.failed;
      return std::nullopt;
    }
    return ms;
  };
  // Bench-side work beside the calls: probes (traced), verification and
  // bookkeeping. Spans of this kind never overlap a call's interval.
  auto aside = [&](std::uint32_t parent, const char* name, auto&& body) -> double {
    const auto a = Clock::now();
    body();
    const auto b = Clock::now();
    tracer.record(parent, name, a, b);
    const double ms = ms_between(a, b);
    paused_ms += ms;
    return ms;
  };
  auto check_mcf = [&](std::uint32_t span, const std::vector<smn::lp::Commodity>& commodities,
                       const smn::lp::McfResult& result, const char* kind) {
    aside(span, "check.mcf_feasible", [&] {
      ++r.ops.check.attempted;
      const std::string bad = mcf_infeasibility(wan.graph(), commodities, result);
      if (!bad.empty()) fail_check(std::string(kind) + " MCF probe: " + bad);
    });
  };
  auto recent_log = [&](SimTime now) {
    return smn.bandwidth_store().fine_range(std::max<SimTime>(0, now - smn::util::kMonth), now);
  };

  smn::lp::McfPathCache consumed_cache;  // what the next adaptive re-solve starts from
  std::size_t cycle = 0;
  std::size_t next_incident = 0;
  for (SimTime now = 0; now <= spec.duration; now += kMinute) {
    // Hourly ingest of the hour just ended, then the closed-loop reads.
    if (now > 0 && now % kHour == 0) {
      const auto& batch = in.batches[static_cast<std::size_t>(now / kHour) - 1];
      std::size_t added = 0;
      if (auto ms = call(r.ops.ingest, "ingest_bandwidth",
                         [&] { added = smn.ingest_bandwidth(batch); })) {
        r.ingest_s += *ms / 1000.0;
        L.ingest_ms += *ms;
        r.records += added;
      }
      for (std::size_t k = 0; k < spec.hour_reads + spec.day_reads; ++k) {
        const SimTime begin =
            std::max<SimTime>(0, now - (k < spec.hour_reads ? kHour : smn::util::kDay));
        smn::smn::ServedFineRange served;
        const auto ms = call(r.ops.read, "serve_bandwidth_range",
                             [&] { served = smn.serve_bandwidth_range(begin, now); });
        if (!ms) continue;
        const std::uint32_t read_span = last_span;
        if (!served.admitted) {
          ++r.ops.read_shed;
          ++r.ops.read.failed;
          continue;
        }
        r.read_ms.push_back(*ms);
        if (served.deadline_exceeded) ++r.ops.read_deadline_exceeded;
        aside(read_span, "check.read", [&] {
          ++r.ops.check.attempted;
          const std::string bad = log_mismatch(served.log, in.range(begin, now));
          if (!bad.empty()) fail_check("snapshot read [" + std::to_string(begin) + ", " +
                                       std::to_string(now) + "): " + bad);
        });
        if (traced) {
          L.read_call_ms += *ms;
          std::optional<smn::telemetry::BandwidthLogStore::ReadView> view;
          const double capture = aside(read_span, "probe.read_view",
                                       [&] { view.emplace(smn.bandwidth_store().read_view()); });
          std::size_t rows = 0;
          const double scan = aside(read_span, "probe.view_fine_range",
                                    [&] { rows = view->fine_range(begin, now).record_count(); });
          L.view_capture_ms.push_back(capture);
          L.view_scan_ms.push_back(scan);
          L.read_probe_ms += capture + scan;
          L.query_records += rows;
        }
      }
    }

    // Five-minute control tick: gauges plus the drift watch, which fires
    // the warm adaptive re-solve.
    if (now % smn::util::kTelemetryEpoch == 0) {
      double level = 0.0;
      if (traced) {
        aside(root, "bench.drift_level", [&] { level = smn.bandwidth_store().drift().level; });
      }
      const std::uint64_t before = smn.early_te_resolves();
      const auto ms = call(r.ops.tick, "tick", [&] { smn.tick(now); });
      const bool fired = smn.early_te_resolves() > before;
      if (fired) ++r.ops.resolve.attempted;
      if (ms && fired) {
        ++r.resolves;
        r.resolve_s.push_back(*ms / 1000.0);
      } else if (ms) {
        r.quiet_tick_ms.push_back(*ms);
      }
      if (ms && fired && traced) {
        const std::uint32_t span = last_span;
        L.resolve_call_ms += *ms;
        smn::telemetry::BandwidthLog recent;
        L.fine_range_ms.push_back(
            aside(span, "probe.fine_range", [&] { recent = recent_log(now); }));
        smn::te::DemandMatrix demand;
        smn::telemetry::ForecastOptions forecast_options;
        forecast_options.drift_level = level;
        L.forecast_ms.push_back(aside(span, "probe.from_forecast", [&] {
          demand = smn::te::DemandMatrix::from_forecast(
              recent, static_cast<std::size_t>(smn::util::kDay / smn::util::kTelemetryEpoch),
              smn::telemetry::ForecastMethod::kEwma, forecast_options);
        }));
        const std::vector<smn::lp::Commodity> commodities = demand.to_commodities(wan);
        smn::lp::McfOptions mcf;
        mcf.epsilon = smn.adaptive().epsilon();
        mcf.warm_start = &consumed_cache;
        smn::lp::McfResult warm;
        L.mcf_warm_ms.push_back(aside(span, "probe.mcf_warm", [&] {
          warm = smn::lp::max_concurrent_flow(wan.graph(), commodities, mcf);
        }));
        L.resolve_probe_ms +=
            L.fine_range_ms.back() + L.forecast_ms.back() + L.mcf_warm_ms.back();
        L.sp_warm += warm.sp_calls;
        L.warm_hits += warm.warm_hits;
        L.warm_misses += warm.warm_misses;
        check_mcf(span, commodities, warm, "warm");
        // A cold solve of the same demand on the seventh re-solve only: it
        // is telemetry_replay's answer to the x5 as crowd, and at 1050
        // datacenters one cold solve costs about 13 s.
        if (r.resolves == 7) {
          mcf.warm_start = nullptr;
          smn::lp::McfResult cold;
          L.mcf_cold_ms.push_back(aside(span, "probe.mcf_cold", [&] {
            cold = smn::lp::max_concurrent_flow(wan.graph(), commodities, mcf);
          }));
          L.sp_cold += cold.sp_calls;
          check_mcf(span, commodities, cold, "cold");
          L.warm_lambda_ratio.push_back(warm.lambda / cold.lambda);
        }
      }
      if (fired && traced) {
        aside(root, "bench.cache_copy", [&] { consumed_cache = smn.te_path_cache(); });
      }
    }

    // Retention: seal due days and spill them to the cold tier.
    if (now > 0 && now % spec.retention_every == 0) {
      if (auto ms = call(r.ops.retention, "run_retention", [&] { smn.run_retention(now); })) {
        r.retention_s += *ms / 1000.0;
        L.seal_ms += *ms;
      }
    }

    // Incidents with a known root team.
    if (now > 0 && now % spec.incident_every == 0 && next_incident < in.incidents.size()) {
      const smn::incident::Incident& incident = in.incidents[next_incident++];
      smn::smn::RoutingDecision decision;
      const auto ms = call(r.ops.incident, "handle_incident",
                           [&] { decision = smn.handle_incident(incident, now); });
      if (ms) {
        r.incident_ms.push_back(*ms);
        if (decision.team == incident.root_team) ++r.incidents_routed_right;
      }
      if (ms && traced) {
        const std::uint32_t span = last_span;
        L.incident_call_ms += *ms;
        std::vector<double> features;
        const double f_ms = aside(span, "probe.combined_features", [&] {
          const smn::incident::FeatureExtractor extractor(*sys->services, smn.cdg());
          features = extractor.combined_features(incident);
        });
        const double e_ms =
            aside(span, "probe.similar", [&] { smn.enricher().similar(features, 3); });
        L.features_ms.push_back(f_ms);
        L.enrich_ms.push_back(e_ms);
        L.incident_probe_ms += f_ms + e_ms;
      }
    }

    // Planning cycle: capacity plan, federated solve, failure sweep.
    if (now >= kFirstCycle && (now - kFirstCycle) % spec.cycle_every == 0 &&
        cycle < in.cycle_commodities.size()) {
      const std::vector<smn::lp::Commodity>& commodities = in.cycle_commodities[cycle++];
      smn::capacity::CapacityPlan plan;
      if (auto ms = call(r.ops.plan, "run_capacity_planning",
                         [&] { plan = smn.run_capacity_planning(now); })) {
        const std::uint32_t span = last_span;
        r.plan_s.push_back(*ms / 1000.0);
        aside(span, "check.upgrades", [&] {
          for (const smn::capacity::LinkUpgrade& u : plan.upgrades) {
            ++r.ops.check.attempted;
            if (u.proposed_capacity_gbps < u.old_capacity_gbps) {
              fail_check("upgrade of " + u.name + " lowers capacity");
            } else if (!wan.link(u.link_index).upgradable()) {
              fail_check("upgrade of fiber-locked link " + u.name);
            }
          }
        });
        if (traced) {
          L.plan_call_ms += *ms;
          L.upgrades += plan.upgrades.size();
          smn::telemetry::BandwidthLog recent;
          const double f_ms = aside(span, "probe.fine_range", [&] { recent = recent_log(now); });
          smn::te::DemandMatrix demand;
          const double d_ms = aside(span, "probe.from_log", [&] {
            demand = smn::te::DemandMatrix::from_log(recent, smn::te::DemandStatistic::kMean);
          });
          const double p_ms = aside(span, "probe.capacity_plan", [&] {
            const smn::capacity::CapacityPlanner planner(wan, smn::capacity::PlannerConfig{});
            planner.plan(recent);
          });
          L.fine_range_ms.push_back(f_ms);
          L.demand_ms.push_back(d_ms);
          L.capacity_plan_ms.push_back(p_ms);
          L.plan_probe_ms += f_ms + d_ms + p_ms;
        }
      }

      smn::te::FederatedTeReport fed;
      if (auto ms = call(r.ops.fed, "run_global_te",
                         [&] { fed = sys->global->run_global_te(commodities, fed_options); })) {
        r.fed_s.push_back(*ms / 1000.0);
        if (traced) {
          L.fed_call_ms += *ms;
          L.fed_probe_ms += fed.federated_total_ms;
          L.fed_global_ms.push_back(fed.global_solve_ms);
          L.fed_total_ms.push_back(fed.federated_total_ms);
          L.fed_global_sp += fed.global_sp_calls;
          L.fed_refine_sp += fed.refine_sp_calls;
        }
      }

      smn::te::RoutingSweepReport sweep;
      if (auto ms = call(r.ops.sweep, "routing_failure_sweep", [&] {
            sweep = smn::te::routing_failure_sweep(wan, commodities, {}, sweep_options);
          })) {
        const std::uint32_t span = last_span;
        r.sweep_s.push_back(*ms / 1000.0);
        if (traced) {
          L.sweep_call_ms += *ms;
          const double ch_ms = aside(span, "probe.ch_build", [&] {
            smn::graph::ChOptions ch_options = sweep_options.ch;
            ch_options.customizable = false;
            smn::graph::ContractionHierarchy ch;
            ch.build(wan.graph(), ch_options);
          });
          L.ch_build_ms.push_back(ch_ms);
          L.sweep_probe_ms += ch_ms;
          L.sweep_pairs += sweep.pairs;
          L.sweep_queries += sweep.ch_queries;
          L.sweep_pristine += sweep.ch_pristine_hits;
          L.sweep_certified += sweep.ch_certified;
          L.sweep_fallbacks += sweep.ch_fallbacks;
        }
      }
    }
  }
  const auto round_end = Clock::now();
  tracer.set_end(root, round_end);
  r.replay_s = (ms_between(round_start, round_end) - paused_ms) / 1000.0;

  const smn::telemetry::LogStoreStats stats = smn.bandwidth_store().stats();
  r.resident_mb = static_cast<double>(stats.resident_bytes) / kMiB;
  r.spilled_mb = static_cast<double>(stats.spilled_bytes) / kMiB;
  r.coarse_mb = static_cast<double>(stats.coarse_bytes) / kMiB;
  r.store_mb = r.resident_mb + r.spilled_mb + r.coarse_mb;
  r.spill_files = stats.spilled_files;
  r.spill_maps = stats.spill_maps;
  r.enricher_archive = smn.enricher().archive_size();
  r.lake_records = smn.clds().record_count("incidents");

  // Checks every round makes: the drift loop fired, and incident routing
  // beats chance (1 in 8 teams) by a wide margin.
  ++r.ops.check.attempted;
  if (r.resolves == 0) fail_check("no drift-triggered re-solve fired");
  ++r.ops.check.attempted;
  if (r.incidents_routed_right * 2 < r.incident_ms.size()) {
    fail_check("incident routing accuracy " + std::to_string(r.incidents_routed_right) + "/" +
               std::to_string(r.incident_ms.size()) + " is below 0.5");
  }

  *system = std::move(sys);
  return r;
}

}  // namespace perfbench
