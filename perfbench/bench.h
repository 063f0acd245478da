// Shared types of the SMN replay benchmark: the workload specs, the inputs
// generated from them, the system under test, and what one replay round
// measures. See README.md for the workloads and the metric definitions.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "depgraph/service_graph.h"
#include "incident/simulator.h"
#include "lp/mcf.h"
#include "smn/global_controller.h"
#include "smn/smn_controller.h"
#include "telemetry/bandwidth_log.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan.h"
#include "topology/wan_generator.h"
#include "util/sim_time.h"

namespace perfbench {

using smn::util::SimTime;
using Clock = std::chrono::steady_clock;

/// Library thread counts, fixed so every run uses the same parallelism.
/// All of them are 1: the store ingests inline and the federated and sweep
/// fan-outs run on the calling thread, so the replay is one thread. On a
/// shared 4-core machine a two-worker ingest pool made the whole replay
/// about 5% slower, not faster, and added wake-up noise.
inline constexpr std::size_t kIngestThreads = 1;
inline constexpr std::size_t kFanoutThreads = 1;

/// Setups per run: setup_s is the median over these, each on a fresh
/// system, plus the one every replay round builds.
inline constexpr int kExtraSetups = 2;

/// Sim-time of the first plan / federated solve / sweep cycle, and the age
/// after which the store seals fine records into the coarse tier.
inline constexpr SimTime kFirstCycle = 2 * smn::util::kHour;
inline constexpr SimTime kMaxFineAge = smn::util::kHour;

/// A warm re-solve must reach this share of a cold solve's lambda on the
/// same demand at the same epsilon.
inline constexpr double kWarmMinRatio = 0.95;

struct Spec {
  std::string name;
  smn::topology::WanConfig wan;
  std::size_t pairs = 0;
  SimTime duration = 0;
  SimTime retention_every = 0;  ///< run_retention cadence (seal + spill)
  std::size_t hour_reads = 0;   ///< trailing-hour reads after each hourly ingest
  std::size_t day_reads = 0;    ///< trailing-day reads after each hourly ingest
  SimTime incident_every = 0;
  SimTime cycle_every = 0;      ///< plan + federated solve + failure sweep
  bool warm_gate = true;        ///< run the warm-start gate (Inputs::gates)
  std::vector<smn::telemetry::RegimeEvent> regimes;
};

/// The three workloads, or null for an unknown name.
const Spec* find_spec(const std::string& name);

/// Count, order-free checksum, sum, min and max of a record set.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(SimTime t, std::uint32_t pair, double bw);
  void merge(const Digest& other);
};

/// One scenario of the warm-start gate: the first hour of a regime, and
/// the lambda of a cold solve of its demand.
struct WarmGate {
  SimTime at = 0;
  std::vector<smn::lp::Commodity> demand;
  double cold_lambda = 0.0;
};

/// Everything a run feeds the system, generated from the seed before any
/// timing starts.
struct Inputs {
  std::vector<smn::telemetry::BandwidthLog> batches;  ///< hour h: [h, h+1) h
  std::vector<Digest> epoch_digest;                   ///< per five-minute epoch
  Digest total;
  /// Per (pair, hour): the statistics the coarse summary of that window
  /// must carry. Pair index = position in `pair_ids`.
  std::vector<std::uint32_t> pair_ids;
  std::vector<Digest> window_digest;  ///< [pair index * hours + hour]
  std::size_t hours = 0;
  std::vector<smn::incident::Incident> incidents;
  std::vector<std::vector<smn::lp::Commodity>> cycle_commodities;
  std::vector<std::size_t> sweep_check_links;
  /// Warm-start gate, built from the noise-free traffic so it is the same
  /// for every seed: `gate_cache` holds the paths of a cold solve of the
  /// first hour's demand; each round warm-starts from a copy of it on each
  /// gate's demand at `gate_epsilon`.
  smn::lp::McfPathCache gate_cache;
  double gate_epsilon = 0.0;
  std::vector<WarmGate> gates;

  /// Digest of the input records with timestamps in [begin, end), both
  /// multiples of the telemetry epoch.
  Digest range(SimTime begin, SimTime end) const;
};

Inputs generate_inputs(const Spec& spec, std::uint64_t seed);

/// The system under test, built by the timed setup. Members are declared
/// in construction order so the controllers die before what they point to.
struct System {
  std::unique_ptr<smn::topology::WanTopology> wan;
  std::unique_ptr<smn::depgraph::ServiceGraph> services;
  std::unique_ptr<smn::smn::SmnController> smn;
  std::unique_ptr<smn::smn::GlobalController> global;
  std::string spill_dir;

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System();
};

/// Wall time of each setup piece (the traced decomposition of setup_s).
struct SetupTimes {
  double wan_ms = 0.0;
  double services_ms = 0.0;
  double controller_ms = 0.0;
  double global_ms = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<System> setup(const Spec& spec, const std::string& spill_dir,
                              SetupTimes* times);

/// Attempted and failed operations of one class.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Ops {
  OpCount ingest, retention, read, tick, resolve, plan, fed, sweep, incident, warm_gate, check;
  std::uint64_t read_shed = 0;
  std::uint64_t read_deadline_exceeded = 0;
};

/// One span of the traced run: a controller call, a probe beside it, or a
/// round. Times are microseconds since the run started.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Per-layer figures of one traced round (README.md lists what each one
/// breaks down).
struct Layers {
  double wan_build_ms = 0.0, controller_build_ms = 0.0;
  double ingest_ms = 0.0, seal_ms = 0.0;
  std::vector<double> view_capture_ms, view_scan_ms, fine_range_ms, forecast_ms;
  std::vector<double> demand_ms, capacity_plan_ms, ch_build_ms;
  std::vector<double> fed_global_ms, fed_total_ms, mcf_warm_ms, mcf_cold_ms;
  std::vector<double> features_ms, enrich_ms;
  std::vector<double> warm_lambda_ratio;  ///< warm / cold lambda per cold probe
  std::uint64_t query_records = 0, upgrades = 0;
  std::uint64_t fed_global_sp = 0, fed_refine_sp = 0;
  std::uint64_t sp_warm = 0, sp_cold = 0, warm_hits = 0, warm_misses = 0;
  std::uint64_t sweep_pairs = 0, sweep_queries = 0, sweep_pristine = 0, sweep_certified = 0,
                sweep_fallbacks = 0;
  /// Wall of the controller calls each probe group breaks down, and of
  /// the probes beside them.
  double read_call_ms = 0.0, read_probe_ms = 0.0;
  double incident_call_ms = 0.0, incident_probe_ms = 0.0;
  double plan_call_ms = 0.0, plan_probe_ms = 0.0;
  double resolve_call_ms = 0.0, resolve_probe_ms = 0.0;
  double fed_call_ms = 0.0, fed_probe_ms = 0.0;
  double sweep_call_ms = 0.0, sweep_probe_ms = 0.0;
};

/// What one replay round measured.
struct Round {
  SetupTimes setup;
  double replay_s = 0.0;
  double calls_ms = 0.0;  ///< sum of every timed controller call
  std::vector<double> read_ms, incident_ms, plan_s, resolve_s, fed_s, sweep_s, quiet_tick_ms;
  double ingest_s = 0.0;     ///< ingest_bandwidth wall
  double retention_s = 0.0;  ///< run_retention wall
  std::uint64_t records = 0;
  double store_mb = 0.0;
  double resident_mb = 0.0, spilled_mb = 0.0, coarse_mb = 0.0;
  std::uint64_t spill_files = 0, spill_maps = 0;
  std::uint64_t resolves = 0, incidents_routed_right = 0;
  std::uint64_t enricher_archive = 0, lake_records = 0;
  std::vector<double> gate_ratios;  ///< warm / cold lambda per warm-start gate
  Ops ops;
  std::vector<std::string> check_failures;
  Layers layers;  ///< filled on traced rounds only
};

struct RoundOptions {
  bool traced = false;
  std::vector<Span>* spans = nullptr;
  Clock::time_point epoch;
};

/// Replays one round on a fresh system, which is handed to `system` at the
/// end so the caller can check it.
Round replay_round(const Spec& spec, const Inputs& inputs, const std::string& spill_dir,
                   const RoundOptions& options, std::unique_ptr<System>* system);

/// End-of-run checks on the system the last round left behind; failures
/// are appended to `round.check_failures`.
void end_of_run_checks(const Spec& spec, const Inputs& inputs, System& system, Round& round);

/// Count, checksum and time order of a returned log against the input;
/// empty when they match, else what is wrong.
std::string log_mismatch(const smn::telemetry::BandwidthLog& log, const Digest& expected);

/// Checks an MCF solution by summing its path flows: every edge within
/// capacity, every commodity routed at least lambda * demand. Returns an
/// empty string when feasible, else what is wrong.
std::string mcf_infeasibility(const smn::graph::Digraph& g,
                              const std::vector<smn::lp::Commodity>& commodities,
                              const smn::lp::McfResult& result);

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace perfbench
