// PR-7 federation bench — the two-level controller split. Four legs:
//
//   * federated TE (the headline gate): evaluate_federated_te on a 1000+ DC
//     planetary WAN — the flat single-controller MCF vs the coarse global
//     solve (flat MCF on the region graph) plus the per-region refinement
//     fan-out. Full run gates throughput fidelity >= 0.95 AND federated
//     wall-clock <= flat;
//   * merge fidelity: region-partitioned ingest through RegionControllers,
//     wire-serialized CoarseExports into the GlobalController — the merged
//     coarse log must be field-for-field identical to one controller
//     coarsening the union of the fine telemetry;
//   * failover: kill a region controller, adopt its spill directory, and
//     verify the replayed fine state is byte-identical;
//   * determinism: the federated solve must reproduce itself exactly across
//     refinement thread counts (1 vs 4).
//
// Writes BENCH_federation.json into the working directory:
//   {
//     "instance": {...},
//     "te": {"flat_ms", "federated_ms", "global_ms", "refine_ms",
//            "lambda_flat", "lambda_federated", "fidelity",
//            "flat_sp_calls", "global_sp_calls", "refine_sp_calls",
//            "coarse_commodities", "refined_commodities"},
//     "merge": {"summaries", "merge_identical"},
//     "failover": {"recovered_records", "replay_identical"},
//     "fidelity": {"fidelity_ok", "wallclock_ok", "merge_identical",
//                  "replay_identical", "deterministic"}
//   }
//
// `--smoke` shrinks the WAN and demand counts for the bench_smoke ctest
// label; the boolean gates stay on, the fidelity and wall-clock gates apply
// only to the full run (tiny solves are timer noise).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "smn/global_controller.h"
#include "smn/region_controller.h"
#include "te/coarse_te.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"
#include "util/interner.h"
#include "util/rng.h"

namespace {

using namespace smn;
namespace fed = ::smn::smn;

/// Distinct random positive-demand pairs — the TE leg's demand matrix.
std::vector<lp::Commodity> make_commodities(const topology::WanTopology& wan, std::size_t count,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  const auto n = static_cast<std::int64_t>(wan.datacenter_count());
  std::vector<lp::Commodity> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
    auto d = static_cast<graph::NodeId>(rng.uniform_int(0, n - 2));
    if (d >= s) ++d;
    out.push_back({s, d, rng.uniform(10.0, 100.0)});
  }
  return out;
}

/// Routes every record to its owning region — the federated ingest path.
std::map<std::string, telemetry::BandwidthLog> split_by_region(
    const topology::WanTopology& wan, const telemetry::BandwidthLog& log) {
  std::map<std::string, telemetry::BandwidthLog> by_region;
  const util::IdSpace& ids = util::IdSpace::global();
  const auto timestamps = log.timestamps();
  const auto pairs = log.pair_ids();
  const auto bw = log.bandwidths();
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    const std::string* region = wan.region_of_dc(ids.pair_src(pairs[i]));
    if (region != nullptr) by_region[*region].append(timestamps[i], pairs[i], bw[i]);
  }
  return by_region;
}

bool summaries_identical(const std::vector<telemetry::WindowSummary>& a,
                         const std::vector<telemetry::WindowSummary>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].window_start != b[i].window_start || a[i].window_length != b[i].window_length ||
        a[i].pair != b[i].pair || a[i].sample_count != b[i].sample_count ||
        a[i].mean != b[i].mean || a[i].p50 != b[i].p50 || a[i].p95 != b[i].p95 ||
        a[i].min != b[i].min || a[i].max != b[i].max) {
      return false;
    }
  }
  return true;
}

bool logs_identical(const telemetry::BandwidthLog& a, const telemetry::BandwidthLog& b) {
  return a.record_count() == b.record_count() &&
         std::equal(a.timestamps().begin(), a.timestamps().end(), b.timestamps().begin()) &&
         std::equal(a.pair_ids().begin(), a.pair_ids().end(), b.pair_ids().begin()) &&
         std::equal(a.bandwidths().begin(), a.bandwidths().end(), b.bandwidths().begin());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // --- Leg 1: federated TE on the 1000+ DC planetary WAN. ---
  topology::WanConfig wan_config;
  if (smoke) {
    wan_config.continents = 2;
    wan_config.regions_per_continent = 2;
    wan_config.dcs_per_region = 4;
  } else {
    wan_config.regions_per_continent = 5;
    wan_config.dcs_per_region = 30;  // 7 * 5 * 30 = 1050 datacenters
  }
  const auto wan = topology::generate_planetary_wan(wan_config);
  const auto commodities = make_commodities(wan, smoke ? 120 : 2400, 53);
  std::printf("instance: %zu DCs, %zu links, %zu regions, %zu demand pairs\n",
              wan.datacenter_count(), wan.link_count(), wan.regions().size(),
              commodities.size());

  fed::GlobalController global(wan);
  te::FederatedTeOptions te_options;
  te_options.threads = 4;
  const te::FederatedTeReport report = global.run_global_te(commodities, te_options);
  std::printf("te: flat %.1f ms lambda %.6f (%zu sp) vs federated %.1f ms lambda %.6f "
              "(global %zu + refine %zu sp) — fidelity %.4f\n",
              report.flat_solve_ms, report.lambda_flat, report.flat_sp_calls,
              report.federated_total_ms, report.lambda_federated, report.global_sp_calls,
              report.refine_sp_calls, report.throughput_fidelity);
  std::printf("  coarse %zu of %zu commodities, %zu refined intra-region\n",
              report.coarse_commodities, report.fine_commodities, report.refined_commodities);

  // Determinism: refinement fan-out must not leak thread-count into the
  // routing (non-timing fields reproduce exactly).
  te::FederatedTeOptions serial = te_options;
  serial.threads = 1;
  const te::FederatedTeReport replay =
      te::evaluate_federated_te(wan, wan.region_partition(), commodities, serial);
  const bool deterministic = replay.lambda_federated == report.lambda_federated &&
                             replay.admitted_federated_gbps == report.admitted_federated_gbps &&
                             replay.refined_commodities == report.refined_commodities &&
                             replay.refine_sp_calls == report.refine_sp_calls;

  // --- Leg 2: merge fidelity through the wire format. ---
  const auto merge_wan = topology::generate_test_wan();
  telemetry::TrafficConfig traffic;
  traffic.duration = 3 * util::kDay;
  traffic.active_pairs = smoke ? 24 : 120;
  traffic.seed = 29;
  const telemetry::BandwidthLog log = telemetry::TrafficGenerator(merge_wan, traffic).generate();
  const util::SimTime now = 3 * util::kDay;
  fed::CoreConfig core_config;
  core_config.bw_max_fine_age = util::kDay;

  fed::Mib reference_mib;
  fed::ControllerCore reference(core_config, "smn");
  reference.ingest_bandwidth(log, reference_mib);
  reference.run_bw_retention(now);

  const auto by_region = split_by_region(merge_wan, log);
  fed::GlobalController merge_global(merge_wan);
  for (const std::string& region : merge_wan.regions()) {
    fed::RegionController controller(region, merge_wan, core_config);
    const auto member = by_region.find(region);
    if (member != by_region.end()) controller.ingest_bandwidth(member->second);
    controller.run_retention(now);
    merge_global.ingest_export(
        fed::parse_export(fed::serialize_export(controller.build_export(now))));
  }
  merge_global.merge_pending();
  const bool merge_identical = summaries_identical(
      merge_global.coarse().summaries(), reference.store().coarse().summaries());
  std::printf("merge: %zu summaries through %zu exports — %s\n",
              merge_global.coarse().summaries().size(), merge_global.region_count(),
              merge_identical ? "identical to single controller" : "MERGE MISMATCH");

  // --- Leg 3: failover replay from the spill directory. ---
  const std::string spill_dir =
      (std::filesystem::temp_directory_path() / "smn_bench_federation_spill").string();
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);
  fed::CoreConfig spill_config = core_config;
  spill_config.bw_spill_dir = spill_dir;
  const std::string victim = merge_wan.regions().front();
  telemetry::BandwidthLog before;
  std::size_t spilled_records = 0;
  {
    fed::RegionController controller(victim, merge_wan, spill_config);
    const auto member = by_region.find(victim);
    if (member != by_region.end()) controller.ingest_bandwidth(member->second);
    controller.run_retention(now);
    spilled_records = controller.store().stats().spilled_records;
    // Only the sealed (spilled) horizon survives a crash: records younger
    // than bw_max_fine_age are resident-only and die with the controller.
    before = controller.store().fine_range(0, now - core_config.bw_max_fine_age);
    before.sort();
  }
  std::size_t recovered = 0;
  auto adopted = merge_global.adopt_region(victim, spill_config, &recovered);
  telemetry::BandwidthLog after =
      adopted->store().fine_range(0, now - core_config.bw_max_fine_age);
  after.sort();
  const bool replay_identical = recovered == spilled_records && logs_identical(before, after);
  std::printf("failover: %zu spilled records replayed — %s\n", recovered,
              replay_identical ? "byte-identical" : "REPLAY MISMATCH");
  std::filesystem::remove_all(spill_dir);

  // Throughput and wall-clock gates hold for the full run only; smoke
  // solves are timer noise (the fidelity booleans still gate).
  const bool fidelity_ok = smoke || report.throughput_fidelity >= 0.95;
  const bool wallclock_ok = smoke || report.federated_total_ms <= report.flat_solve_ms;
  std::printf("fidelity: throughput %s, wallclock %s, merge %s, replay %s, deterministic %s\n",
              fidelity_ok ? "ok" : "BELOW 0.95 GATE",
              wallclock_ok ? "ok" : "SLOWER THAN FLAT", merge_identical ? "ok" : "FAIL",
              replay_identical ? "ok" : "FAIL", deterministic ? "ok" : "FAIL");

  std::FILE* out = std::fopen("BENCH_federation.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_federation.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"instance\": {\"dcs\": %zu, \"links\": %zu, \"regions\": %zu, "
               "\"pairs\": %zu, \"smoke\": %s},\n",
               wan.datacenter_count(), wan.link_count(), wan.regions().size(),
               commodities.size(), smoke ? "true" : "false");
  std::fprintf(out,
               "  \"te\": {\"flat_ms\": %.3f, \"federated_ms\": %.3f, \"global_ms\": %.3f, "
               "\"refine_ms\": %.3f, \"lambda_flat\": %.9f, \"lambda_federated\": %.9f, "
               "\"fidelity\": %.6f, \"flat_sp_calls\": %zu, \"global_sp_calls\": %zu, "
               "\"refine_sp_calls\": %zu, \"coarse_commodities\": %zu, "
               "\"refined_commodities\": %zu},\n",
               report.flat_solve_ms, report.federated_total_ms, report.global_solve_ms,
               report.refine_solve_ms, report.lambda_flat, report.lambda_federated,
               report.throughput_fidelity, report.flat_sp_calls, report.global_sp_calls,
               report.refine_sp_calls, report.coarse_commodities, report.refined_commodities);
  std::fprintf(out, "  \"merge\": {\"summaries\": %zu, \"merge_identical\": %s},\n",
               merge_global.coarse().summaries().size(), merge_identical ? "true" : "false");
  std::fprintf(out, "  \"failover\": {\"recovered_records\": %zu, \"replay_identical\": %s},\n",
               recovered, replay_identical ? "true" : "false");
  std::fprintf(out,
               "  \"fidelity\": {\"fidelity_ok\": %s, \"wallclock_ok\": %s, "
               "\"merge_identical\": %s, \"replay_identical\": %s, \"deterministic\": %s}\n",
               fidelity_ok ? "true" : "false", wallclock_ok ? "true" : "false",
               merge_identical ? "true" : "false", replay_identical ? "true" : "false",
               deterministic ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_federation.json\n");
  return (fidelity_ok && wallclock_ok && merge_identical && replay_identical && deterministic)
             ? 0
             : 1;
}
