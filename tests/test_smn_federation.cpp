// The two-level federation (DESIGN.md §12): CoarseExport wire format,
// RegionController ownership + export sequencing, the GlobalController
// merge invariant (region-partitioned ingest → per-region coarsen → global
// merge is byte-identical to one controller coarsening the union), spill
// lockfile exclusivity, failover adoption, and the federated TE report.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "smn/coarse_export.h"
#include "smn/global_controller.h"
#include "smn/region_controller.h"
#include "te/demand.h"
#include "telemetry/traffic_generator.h"
#include "topology/supernode.h"
#include "topology/wan_generator.h"
#include "util/contracts.h"
#include "util/interner.h"

namespace smn::smn {
namespace {

using util::ContractMode;
using util::ContractViolation;
using util::ScopedContractMode;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "smn_federation_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

telemetry::BandwidthLog three_days_log(const topology::WanTopology& wan,
                                       std::uint64_t seed = 21) {
  telemetry::TrafficConfig config;
  config.duration = 3 * util::kDay;
  config.active_pairs = 24;
  config.seed = seed;
  return telemetry::TrafficGenerator(wan, config).generate();
}

/// Routes every record to its owning region (the pair's source DC's
/// region) — the federated ingest path.
void split_by_region(const topology::WanTopology& wan, const telemetry::BandwidthLog& log,
                     std::map<std::string, telemetry::BandwidthLog>* by_region) {
  const util::IdSpace& ids = util::IdSpace::global();
  const auto timestamps = log.timestamps();
  const auto pairs = log.pair_ids();
  const auto bw = log.bandwidths();
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    const std::string* region = wan.region_of_dc(ids.pair_src(pairs[i]));
    ASSERT_NE(region, nullptr) << "record from a DC outside the WAN";
    (*by_region)[*region].append(timestamps[i], pairs[i], bw[i]);
  }
}

CoarseExport sample_export() {
  CoarseExport exp;
  exp.region = "na-east";
  exp.sequence = 3;
  exp.exported_at = 2 * util::kDay;
  exp.pair_names = {{"dc-a", "dc-b"}, {"dc-b", "dc-c"}};
  ExportSummary s;
  s.pair_index = 1;
  s.window_start = util::kHour;
  s.window_length = util::kHour;
  s.sample_count = 42;
  s.mean = 12.5;
  s.p50 = 11.0;
  s.p95 = 30.25;
  s.min = 0.5;
  s.max = 31.0;
  exp.summaries = {s};
  exp.gauges = {{"bw_fine_records", 1234.0}, {"bw_spill_files", 2.0}};
  exp.drift.level = 0.4;
  exp.drift.deviation_gbps = 7.5;
  exp.drift.baseline_gbps = 120.0;
  exp.drift.pairs_tracked = 17;
  exp.drift.has_baseline = true;
  return exp;
}

// ------------------------------------------------- CoarseExport format --

TEST(CoarseExport, SerializeParseRoundTrip) {
  const CoarseExport exp = sample_export();
  const CoarseExport back = parse_export(serialize_export(exp));
  EXPECT_EQ(back.region, exp.region);
  EXPECT_EQ(back.sequence, exp.sequence);
  EXPECT_EQ(back.exported_at, exp.exported_at);
  EXPECT_EQ(back.pair_names, exp.pair_names);
  ASSERT_EQ(back.summaries.size(), 1u);
  EXPECT_EQ(back.summaries[0].pair_index, 1u);
  EXPECT_EQ(back.summaries[0].window_start, util::kHour);
  EXPECT_EQ(back.summaries[0].sample_count, 42u);
  EXPECT_DOUBLE_EQ(back.summaries[0].p95, 30.25);
  ASSERT_EQ(back.gauges.size(), 2u);
  EXPECT_EQ(back.gauges[0].name, "bw_fine_records");
  EXPECT_DOUBLE_EQ(back.gauges[1].value, 2.0);
  EXPECT_DOUBLE_EQ(back.drift.deviation_gbps, 7.5);
  EXPECT_EQ(back.drift.pairs_tracked, 17u);
  EXPECT_TRUE(back.drift.has_baseline);
}

TEST(CoarseExport, RejectsCorruptionTruncationAndBadMagic) {
  const ScopedContractMode scoped(ContractMode::kThrow);
  const std::string bytes = serialize_export(sample_export());
  // Any flipped payload byte breaks the checksum.
  std::string corrupt = bytes;
  corrupt[bytes.size() - 3] ^= 0x40;
  EXPECT_THROW(parse_export(corrupt), ContractViolation);
  // Truncation below the header, and within the payload.
  EXPECT_THROW(parse_export(std::string_view(bytes).substr(0, 20)), ContractViolation);
  // Bad magic: not an export at all.
  std::string wrong = bytes;
  wrong[0] ^= 0xFF;
  EXPECT_THROW(parse_export(wrong), ContractViolation);
  // Trailing garbage past the declared payload.
  std::string trailing = bytes + "x";
  EXPECT_THROW(parse_export(trailing), ContractViolation);
}

TEST(CoarseExport, FileRoundTripIsAtomic) {
  const std::string dir = temp_dir("export_file");
  const std::string path = dir + "/na-east_seq3.fedx";
  const CoarseExport exp = sample_export();
  write_export_file(path, exp);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const CoarseExport back = read_export_file(path);
  EXPECT_EQ(back.region, exp.region);
  EXPECT_EQ(back.sequence, exp.sequence);
  EXPECT_EQ(serialize_export(back), serialize_export(exp));
}

// ------------------------------------------------ spill-lock exclusivity --

TEST(SpillLock, SecondStoreOnSameDirFailsUnlessStealing) {
  const ScopedContractMode scoped(ContractMode::kThrow);
  const std::string dir = temp_dir("lock");
  CoreConfig config;
  config.bw_spill_dir = dir;
  ControllerCore first(config, "region/a");
  // A second live store on the same directory would interleave spill
  // generations — the pid lockfile rejects it.
  EXPECT_THROW((ControllerCore(config, "region/b")), ContractViolation);
  // Failover adoption is the sanctioned exception.
  config.bw_spill_steal_lock = true;
  ControllerCore adopter(config, "region/c");
  EXPECT_TRUE(adopter.store().spill_enabled());
}

TEST(CoreConfig, RejectsNonsensicalKnobs) {
  const ScopedContractMode scoped(ContractMode::kThrow);
  CoreConfig zero_window;
  zero_window.bw_coarse_window = 0;
  EXPECT_THROW(ControllerCore{zero_window}, ContractViolation);
  CoreConfig no_shards;
  no_shards.bw_shards = 0;
  EXPECT_THROW(ControllerCore{no_shards}, ContractViolation);
  CoreConfig inverted;
  inverted.drift_rearm_threshold = 0.5;
  inverted.drift_resolve_threshold = 0.25;
  EXPECT_THROW(ControllerCore{inverted}, ContractViolation);
}

// ---------------------------------------------------- RegionController --

TEST(RegionController, OwnershipGatesIngest) {
  const ScopedContractMode scoped(ContractMode::kThrow);
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::vector<std::string> regions = wan.regions();
  ASSERT_GE(regions.size(), 2u);
  const telemetry::BandwidthLog log = three_days_log(wan);
  std::map<std::string, telemetry::BandwidthLog> by_region;
  split_by_region(wan, log, &by_region);
  RegionController controller(regions[0], wan);
  // Own-region traffic ingests; the full (mixed) log trips the guard.
  EXPECT_GT(controller.ingest_bandwidth(by_region.at(regions[0])), 0u);
  EXPECT_THROW(controller.ingest_bandwidth(log), ContractViolation);
  // A region the WAN does not contain is rejected at construction.
  EXPECT_THROW(RegionController("atlantis", wan), ContractViolation);
}

TEST(RegionController, ExportsOnlyNewlySealedSummaries) {
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::string region = wan.regions().front();
  std::map<std::string, telemetry::BandwidthLog> by_region;
  split_by_region(wan, three_days_log(wan), &by_region);
  ASSERT_TRUE(by_region.count(region));

  CoreConfig config;
  config.bw_max_fine_age = util::kDay;
  RegionController controller(region, wan, config);
  controller.ingest_bandwidth(by_region.at(region));

  controller.run_retention(2 * util::kDay);
  CoarseExport first = controller.build_export(2 * util::kDay);
  EXPECT_EQ(first.sequence, 1u);
  EXPECT_GT(first.summaries.size(), 0u);
  // Nothing sealed since: the next export is empty but advances the
  // sequence.
  CoarseExport empty = controller.build_export(2 * util::kDay);
  EXPECT_EQ(empty.sequence, 2u);
  EXPECT_TRUE(empty.summaries.empty());
  // Another retention day seals more; only the new rows ship.
  controller.run_retention(3 * util::kDay);
  CoarseExport second = controller.build_export(3 * util::kDay);
  EXPECT_EQ(second.sequence, 3u);
  EXPECT_GT(second.summaries.size(), 0u);
  EXPECT_EQ(first.summaries.size() + second.summaries.size(),
            controller.store().coarse().summaries().size());
}

// -------------------------------------------- global merge byte-identity --

/// The federation correctness invariant: region-partitioned ingest +
/// per-region coarsening + the canonical global merge reproduces the
/// single-controller coarse log field-for-field — independent of the
/// regions' shard counts, because each pair is owned by exactly one region
/// and the merge order is the canonical emission order.
void expect_merge_byte_identity(std::size_t region_shards) {
  const topology::WanTopology wan = topology::generate_test_wan();
  const telemetry::BandwidthLog log = three_days_log(wan);
  const util::SimTime now = 3 * util::kDay;

  CoreConfig config;
  config.bw_max_fine_age = util::kDay;

  // Reference: one controller over the union of the fine telemetry.
  Mib ref_mib;
  ControllerCore reference(config, "smn");
  reference.ingest_bandwidth(log, ref_mib);
  reference.run_bw_retention(now);
  const auto& expected = reference.store().coarse().summaries();
  ASSERT_GT(expected.size(), 0u);

  // Federated: per-region controllers, wire-serialized exports, global
  // merge.
  std::map<std::string, telemetry::BandwidthLog> by_region;
  split_by_region(wan, log, &by_region);
  CoreConfig region_config = config;
  region_config.bw_shards = region_shards;
  GlobalController global(wan);
  for (const std::string& region : wan.regions()) {
    RegionController controller(region, wan, region_config);
    const auto member = by_region.find(region);
    if (member != by_region.end()) controller.ingest_bandwidth(member->second);
    controller.run_retention(now);
    const CoarseExport exp = controller.build_export(now);
    global.ingest_export(parse_export(serialize_export(exp)));
  }
  EXPECT_EQ(global.merge_pending(), expected.size());

  const auto& merged = global.coarse().summaries();
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].window_start, expected[i].window_start) << "row " << i;
    EXPECT_EQ(merged[i].window_length, expected[i].window_length) << "row " << i;
    EXPECT_EQ(merged[i].pair, expected[i].pair) << "row " << i;
    EXPECT_EQ(merged[i].sample_count, expected[i].sample_count) << "row " << i;
    // Exact — the same samples aggregated in the same order, not "close".
    EXPECT_EQ(merged[i].mean, expected[i].mean) << "row " << i;
    EXPECT_EQ(merged[i].p50, expected[i].p50) << "row " << i;
    EXPECT_EQ(merged[i].p95, expected[i].p95) << "row " << i;
    EXPECT_EQ(merged[i].min, expected[i].min) << "row " << i;
    EXPECT_EQ(merged[i].max, expected[i].max) << "row " << i;
  }
}

TEST(GlobalMerge, ByteIdenticalToSingleController) { expect_merge_byte_identity(8); }

TEST(GlobalMerge, ByteIdentityHoldsAcrossShardCounts) {
  expect_merge_byte_identity(1);
  expect_merge_byte_identity(3);
}

// ---------------------------------------------------- GlobalController --

TEST(GlobalController, RejectsUnknownRegionAndStaleSequence) {
  const ScopedContractMode scoped(ContractMode::kThrow);
  const topology::WanTopology wan = topology::generate_test_wan();
  GlobalController global(wan);
  EXPECT_EQ(global.region_count(), wan.regions().size());

  CoarseExport exp = sample_export();
  exp.region = "atlantis";
  EXPECT_THROW(global.ingest_export(exp), ContractViolation);

  exp.region = wan.regions().front();
  exp.sequence = 2;
  global.ingest_export(exp);
  // Replay and regression both violate strict sequence monotonicity.
  EXPECT_THROW(global.ingest_export(exp), ContractViolation);
  exp.sequence = 1;
  EXPECT_THROW(global.ingest_export(exp), ContractViolation);
  exp.sequence = 3;
  EXPECT_EQ(global.ingest_export(exp), exp.summaries.size());
  EXPECT_EQ(global.exports_ingested(), 2u);
}

// ----------------------------------------------------------- failover --

TEST(Failover, AdoptionReplaysSpillDirByteIdentically) {
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::string region = wan.regions().front();
  const std::string dir = temp_dir("failover");
  std::map<std::string, telemetry::BandwidthLog> by_region;
  split_by_region(wan, three_days_log(wan), &by_region);

  CoreConfig config;
  config.bw_max_fine_age = util::kDay;
  config.bw_spill_dir = dir;

  // First life: ingest, seal two days into the spill tier, snapshot the
  // sealed fine state the adoptee must reproduce.
  telemetry::BandwidthLog before;
  std::size_t spilled_records = 0;
  {
    RegionController controller(region, wan, config);
    controller.ingest_bandwidth(by_region.at(region));
    controller.run_retention(3 * util::kDay);
    spilled_records = controller.store().stats().spilled_records;
    ASSERT_GT(spilled_records, 0u);
    before = controller.store().fine_range(0, 2 * util::kDay);
    before.sort();
  }

  // Second life: adopt the directory and replay.
  GlobalController global(wan);
  std::size_t recovered = 0;
  auto adopted = global.adopt_region(region, config, &recovered);
  EXPECT_EQ(recovered, spilled_records);
  telemetry::BandwidthLog after = adopted->store().fine_range(0, 2 * util::kDay);
  after.sort();
  ASSERT_EQ(after.record_count(), before.record_count());
  EXPECT_TRUE(std::equal(after.timestamps().begin(), after.timestamps().end(),
                         before.timestamps().begin()));
  EXPECT_TRUE(std::equal(after.pair_ids().begin(), after.pair_ids().end(),
                         before.pair_ids().begin()));
  EXPECT_TRUE(
      std::equal(after.bandwidths().begin(), after.bandwidths().end(),
                 before.bandwidths().begin()));
  // The adoptee starts a fresh export sequence the global tier accepts.
  EXPECT_EQ(adopted->next_sequence(), 1u);
  global.ingest_export(adopted->build_export(3 * util::kDay));
}

// -------------------------------------------------------- federated TE --

/// The federated TE leg's demand: mean bandwidth per pair over three days.
std::vector<lp::Commodity> mean_commodities(const topology::WanTopology& wan) {
  const te::DemandMatrix matrix =
      te::DemandMatrix::from_log(three_days_log(wan), te::DemandStatistic::kMean);
  return matrix.to_commodities(wan);
}

TEST(FederatedTe, ReportIsConsistentAndWithinFidelityGate) {
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::vector<lp::Commodity> commodities = mean_commodities(wan);
  ASSERT_FALSE(commodities.empty());

  GlobalController global(wan);
  const te::FederatedTeReport report = global.run_global_te(commodities);
  EXPECT_EQ(report.regions, wan.regions().size());
  EXPECT_EQ(report.fine_commodities, commodities.size());
  EXPECT_GT(report.lambda_flat, 0.0);
  EXPECT_GT(report.lambda_federated, 0.0);
  EXPECT_GE(report.throughput_fidelity, 0.0);
  EXPECT_LE(report.throughput_fidelity, 1.0);
  EXPECT_GT(report.admitted_flat_gbps, 0.0);
  EXPECT_GT(report.admitted_federated_gbps, 0.0);
  // The global tier routes over the coarse graph: far fewer SP calls than
  // the flat solve.
  EXPECT_LT(report.global_sp_calls, report.flat_sp_calls);
  const auto published = global.mib().get("global", "te_throughput_fidelity");
  ASSERT_TRUE(published.has_value());
  EXPECT_DOUBLE_EQ(*published, report.throughput_fidelity);
}

TEST(FederatedTe, FlatReferenceGaugesPublishedOnlyWhenTheReferenceRan) {
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::vector<lp::Commodity> commodities = mean_commodities(wan);

  // Without the flat reference there is no fidelity to report: the gauges
  // stay absent instead of reading 0.
  GlobalController skipped(wan);
  te::FederatedTeOptions no_flat;
  no_flat.solve_flat = false;
  const te::FederatedTeReport partial = skipped.run_global_te(commodities, no_flat);
  EXPECT_EQ(partial.lambda_flat, 0.0);
  EXPECT_FALSE(skipped.mib().get("global", "te_lambda_flat").has_value());
  EXPECT_FALSE(skipped.mib().get("global", "te_throughput_fidelity").has_value());
  const auto federated = skipped.mib().get("global", "te_lambda_federated");
  ASSERT_TRUE(federated.has_value());
  EXPECT_EQ(*federated, partial.lambda_federated);

  GlobalController full(wan);
  const te::FederatedTeReport report = full.run_global_te(commodities);
  const auto flat = full.mib().get("global", "te_lambda_flat");
  const auto fidelity = full.mib().get("global", "te_throughput_fidelity");
  ASSERT_TRUE(flat.has_value());
  ASSERT_TRUE(fidelity.has_value());
  EXPECT_GT(*flat, 0.0);
  EXPECT_EQ(*flat, report.lambda_flat);
  EXPECT_EQ(*fidelity, report.throughput_fidelity);

  // A later solve without the reference leaves the last measured one in
  // place rather than overwriting it with placeholders.
  full.run_global_te(commodities, no_flat);
  EXPECT_EQ(full.mib().get("global", "te_lambda_flat"), flat);
  EXPECT_EQ(full.mib().get("global", "te_throughput_fidelity"), fidelity);
}

TEST(FederatedTe, GlobalTierIsThePlainMcfOnTheRegionGraph) {
  // One code path: the global tier's figures are exactly those of a direct
  // max_concurrent_flow over the coarsened region graph and the aggregated
  // commodities, at the same epsilon.
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::vector<lp::Commodity> commodities = mean_commodities(wan);
  const graph::Partition& partition = wan.region_partition();

  te::FederatedTeOptions options;
  options.epsilon = 0.1;
  options.solve_flat = false;
  const te::FederatedTeReport report =
      te::evaluate_federated_te(wan, partition, commodities, options);

  const topology::WanTopology coarse =
      topology::SupernodeCoarsener::coarsen_with_partition(wan, partition);
  const std::vector<lp::Commodity> aggregated =
      te::aggregate_commodities(wan, partition, commodities);
  const lp::McfResult direct =
      lp::max_concurrent_flow(coarse.graph(), aggregated, {.epsilon = options.epsilon});
  EXPECT_GT(direct.lambda, 0.0);
  EXPECT_EQ(report.lambda_global_nominal, direct.lambda);
  EXPECT_EQ(report.global_sp_calls, direct.sp_calls);
  EXPECT_EQ(report.coarse_commodities, aggregated.size());
}

TEST(FederatedTe, DeterministicAcrossThreadCounts) {
  const topology::WanTopology wan = topology::generate_test_wan();
  const std::vector<lp::Commodity> commodities = mean_commodities(wan);

  te::FederatedTeOptions serial;
  serial.threads = 1;
  te::FederatedTeOptions parallel = serial;
  parallel.threads = 4;
  const te::FederatedTeReport a =
      te::evaluate_federated_te(wan, wan.region_partition(), commodities, serial);
  const te::FederatedTeReport b =
      te::evaluate_federated_te(wan, wan.region_partition(), commodities, parallel);
  EXPECT_EQ(a.lambda_global_nominal, b.lambda_global_nominal);
  EXPECT_EQ(a.global_sp_calls, b.global_sp_calls);
  EXPECT_EQ(a.lambda_federated, b.lambda_federated);
  EXPECT_EQ(a.admitted_federated_gbps, b.admitted_federated_gbps);
  EXPECT_EQ(a.refined_commodities, b.refined_commodities);
  EXPECT_EQ(a.refine_sp_calls, b.refine_sp_calls);
}

}  // namespace
}  // namespace smn::smn
