// Workload specs and seed-driven input generation. Everything here runs
// before the first timed setup; the system under test only ever sees the
// generated batches, incidents and commodities.
#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "bench.h"
#include "depgraph/reddit.h"
#include "incident/fault.h"
#include "smn/adaptive_controller.h"
#include "te/demand.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using smn::telemetry::RegimeKind;
using smn::util::kDay;
using smn::util::kHour;
using smn::util::kMinute;

smn::topology::WanConfig wan_308() { return {}; }

smn::topology::WanConfig wan_1050() {
  smn::topology::WanConfig config;
  config.regions_per_continent = 5;
  config.dcs_per_region = 30;  // 7 * 5 * 30 = 1050 datacenters, 35 regions
  return config;
}

// Why each workload exists is in README.md; in short: telemetry_replay is
// write/read/incident heavy with little solver work, large_wan is
// graph-size and solver heavy.
const Spec kSpecs[] = {
    {.name = "telemetry_replay",
     .wan = wan_308(),
     .pairs = 1500,
     .duration = 2 * kDay,
     .retention_every = 3 * kHour,
     .hour_reads = 2,
     .day_reads = 1,
     .incident_every = kMinute,
     .cycle_every = 8 * kHour,
     .regimes = {{RegimeKind::kLevelShift, 5 * kHour, 4 * kHour, 2.0, ""},
                 {RegimeKind::kFlashCrowd, 14 * kHour, 4 * kHour, 5.0, "eu"},
                 {RegimeKind::kLevelShift, 22 * kHour, 4 * kHour, 0.4, ""},
                 {RegimeKind::kFlashCrowd, 30 * kHour, 4 * kHour, 5.0, "as"},
                 {RegimeKind::kLevelShift, 39 * kHour, 4 * kHour, 2.0, ""}}},
    {.name = "large_wan",
     .wan = wan_1050(),
     .pairs = 300,
     .duration = kDay,
     .retention_every = 3 * kHour,
     .hour_reads = 6,
     .day_reads = 3,
     .incident_every = kMinute,
     .cycle_every = 2 * kHour,
     // Uniform level shifts keep the cached paths optimal, and one cold
     // solve at 1050 DCs costs about 18 s at the gate's epsilon on one
     // 2.1 GHz x86-64 core.
     .warm_gate = false,
     .regimes = {{RegimeKind::kLevelShift, 3 * kHour, 2 * kHour, 2.0, ""},
                 {RegimeKind::kLevelShift, 6 * kHour, 2 * kHour, 0.4, ""},
                 {RegimeKind::kLevelShift, 9 * kHour, 2 * kHour, 2.0, ""},
                 {RegimeKind::kLevelShift, 14 * kHour, 2 * kHour, 0.4, ""},
                 {RegimeKind::kLevelShift, 17 * kHour, 2 * kHour, 2.0, ""},
                 {RegimeKind::kLevelShift, 20 * kHour, 2 * kHour, 0.4, ""}}},
};

/// Commodities of the mean demand of the records in [begin, end).
std::vector<smn::lp::Commodity> mean_demand(const smn::telemetry::BandwidthLog& log,
                                            SimTime begin, SimTime end,
                                            const smn::topology::WanTopology& wan) {
  smn::telemetry::BandwidthLog window;
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    const SimTime t = log.timestamps()[i];
    if (t >= begin && t < end) window.append(t, log.pair_ids()[i], log.bandwidths()[i]);
  }
  return smn::te::DemandMatrix::from_log(window, smn::te::DemandStatistic::kMean)
      .to_commodities(wan);
}

/// The warm-start gate replays, on the noise-free traffic, the re-solves a
/// controller makes as the workload's regimes arrive: the cache comes from
/// a cold solve of the first hour, as the first solve would fill it, and
/// each gate is the first hour of the next regime, warm-started from what
/// the previous gate left in the cache. Epsilon is the adaptive policy's
/// tight one, which a regime change selects.
void build_warm_gate(const Spec& spec, const smn::topology::WanTopology& wan,
                     const smn::telemetry::BandwidthLog& noise_free, Inputs& in) {
  in.gate_epsilon = smn::smn::AdaptiveConfig{}.eps_tight;
  smn::lp::McfOptions options;
  options.epsilon = in.gate_epsilon;
  options.warm_start = &in.gate_cache;
  smn::lp::max_concurrent_flow(wan.graph(), mean_demand(noise_free, 0, kHour, wan), options);
  options.warm_start = nullptr;
  for (const smn::telemetry::RegimeEvent& regime : spec.regimes) {
    WarmGate gate;
    gate.at = regime.at;
    gate.demand = mean_demand(noise_free, regime.at, regime.at + kHour, wan);
    gate.cold_lambda = smn::lp::max_concurrent_flow(wan.graph(), gate.demand, options).lambda;
    in.gates.push_back(std::move(gate));
  }
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void Digest::add(SimTime t, std::uint32_t pair, double bw) {
  hash += mix(static_cast<std::uint64_t>(t) * 0x100000001b3ULL ^ mix(pair) ^
              mix(std::bit_cast<std::uint64_t>(bw)));
  min = count == 0 ? bw : std::min(min, bw);
  max = count == 0 ? bw : std::max(max, bw);
  sum += bw;
  ++count;
}

void Digest::merge(const Digest& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  hash += other.hash;
  sum += other.sum;
  count += other.count;
}

Digest Inputs::range(SimTime begin, SimTime end) const {
  Digest d;
  const auto first = static_cast<std::size_t>(std::max<SimTime>(0, begin) /
                                               smn::util::kTelemetryEpoch);
  const auto last = std::min(epoch_digest.size(),
                             static_cast<std::size_t>(end / smn::util::kTelemetryEpoch));
  for (std::size_t e = first; e < last; ++e) d.merge(epoch_digest[e]);
  return d;
}

Inputs generate_inputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  const smn::topology::WanTopology wan = smn::topology::generate_planetary_wan(spec.wan);
  smn::util::Rng rng(mix(seed) ^ 0x5eedULL);

  // The traffic matrix (which pairs talk, at what base volume) is the
  // generator's default one for the workload's pair count, the same for
  // every run seed, like the managed network itself.
  smn::telemetry::TrafficConfig traffic;
  traffic.duration = spec.duration;
  traffic.active_pairs = spec.pairs;
  // Seasonal confounders stay small so measured drift is the injected
  // regimes, which keeps the number of re-solves the same across seeds.
  traffic.diurnal_amplitude = 0.05;
  traffic.weekend_factor = 1.0;
  traffic.holiday_spike_factor = 1.0;
  traffic.noise_sigma = 0.02;
  traffic.regimes = spec.regimes;
  smn::telemetry::BandwidthLog log = smn::telemetry::TrafficGenerator(wan, traffic).generate();
  if (spec.warm_gate) build_warm_gate(spec, wan, log, in);
  {
    // The run seed draws each record's measurement noise on top of the
    // fixed traffic matrix. It is kept small: the paths of the first cold
    // solve depend on it, and with them the cost of every later warm
    // re-solve (at sigma 0.05 two seeds' large_wan re-solves differed by
    // 45% throughout, at 0.01 by 15%).
    smn::telemetry::BandwidthLog noisy;
    noisy.reserve(log.record_count());
    for (std::size_t i = 0; i < log.record_count(); ++i) {
      noisy.append(log.timestamps()[i], log.pair_ids()[i],
                   log.bandwidths()[i] * std::exp(0.01 * rng.normal()));
    }
    log = std::move(noisy);
  }

  // Hourly batches, epoch digests and per-(pair, hour) window digests.
  in.hours = static_cast<std::size_t>(spec.duration / kHour);
  in.batches.resize(in.hours);
  in.epoch_digest.resize(static_cast<std::size_t>(spec.duration / smn::util::kTelemetryEpoch));
  std::unordered_map<std::uint32_t, std::size_t> pair_index;
  const auto ts = log.timestamps();
  const auto ids = log.pair_ids();
  const auto bw = log.bandwidths();
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    auto [it, fresh] = pair_index.try_emplace(ids[i], in.pair_ids.size());
    if (fresh) in.pair_ids.push_back(ids[i]);
  }
  in.window_digest.resize(in.pair_ids.size() * in.hours);
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    const auto hour = static_cast<std::size_t>(ts[i] / kHour);
    in.batches[hour].append(ts[i], ids[i], bw[i]);
    in.epoch_digest[static_cast<std::size_t>(ts[i] / smn::util::kTelemetryEpoch)].add(
        ts[i], ids[i], bw[i]);
    in.window_digest[pair_index.at(ids[i]) * in.hours + hour].add(ts[i], ids[i], bw[i]);
    in.total.add(ts[i], ids[i], bw[i]);
  }

  // Incidents: uniformly drawn injectable faults on the service graph,
  // each simulated once; the replay routes them in this order.
  const smn::depgraph::ServiceGraph services = smn::depgraph::build_reddit_deployment();
  const std::vector<smn::incident::Fault> faults = smn::incident::enumerate_faults(services);
  const smn::incident::IncidentSimulator simulator(services);
  const auto incident_count = static_cast<std::size_t>(spec.duration / spec.incident_every);
  in.incidents.reserve(incident_count);
  for (std::size_t k = 0; k < incident_count; ++k) {
    const auto& fault = faults[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(faults.size()) - 1))];
    in.incidents.push_back(simulator.simulate(fault, rng));
  }

  // Each cycle's federated solve and failure sweep route the mean demand
  // of the window since the previous cycle.
  for (SimTime t = kFirstCycle; t <= spec.duration; t += spec.cycle_every) {
    in.cycle_commodities.push_back(
        mean_demand(log, std::max<SimTime>(0, t - spec.cycle_every), t, wan));
  }

  // A fixed sample of failed links for the CH-vs-flat sweep check.
  const std::size_t stride = std::max<std::size_t>(1, wan.link_count() / 12);
  for (std::size_t l = 0; l < wan.link_count() && in.sweep_check_links.size() < 12; l += stride) {
    in.sweep_check_links.push_back(l);
  }
  return in;
}

}  // namespace perfbench
