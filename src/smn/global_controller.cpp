#include "smn/global_controller.h"

#include <algorithm>
#include <utility>

#include "util/contracts.h"
#include "util/interner.h"
#include "util/sim_time.h"

namespace smn::smn {

GlobalController::GlobalController(const topology::WanTopology& wan) : wan_(wan) {
  for (const std::string& region : wan_.regions()) last_sequence_.emplace(region, 0);
  SMN_CHECK(!last_sequence_.empty(), "a federation needs at least one region");
}

std::size_t GlobalController::ingest_export(const CoarseExport& exp) {
  // One critical section across validate + buffer + publish: exports from
  // different regions may arrive on different threads, and the sequence
  // check must pair atomically with the buffer append it admits.
  const std::lock_guard<std::mutex> lock(ingest_mutex_);
  const auto member = last_sequence_.find(exp.region);
  SMN_CHECK(member != last_sequence_.end(),
            "export from a region that is not a member of this federation");
  SMN_CHECK(exp.sequence > member->second,
            "stale or replayed export — sequence numbers must strictly increase per region");
  member->second = exp.sequence;

  // Re-intern the wire names into this process's id space: PairIds are
  // process-local handles and never travel.
  util::IdSpace& ids = util::IdSpace::global();
  std::vector<util::PairId> pair_of_index;
  pair_of_index.reserve(exp.pair_names.size());
  for (const auto& [src, dst] : exp.pair_names) {
    pair_of_index.push_back(ids.pair_of_names(src, dst));
  }
  for (const ExportSummary& s : exp.summaries) {
    SMN_CHECK(s.pair_index < pair_of_index.size(),
              "export summary references a pair outside its name table");
    telemetry::WindowSummary row;
    row.window_start = s.window_start;
    row.window_length = s.window_length;
    row.pair = pair_of_index[s.pair_index];
    row.sample_count = static_cast<std::size_t>(s.sample_count);
    row.mean = s.mean;
    row.p50 = s.p50;
    row.p95 = s.p95;
    row.min = s.min;
    row.max = s.max;
    pending_.push_back(row);
  }

  const std::string scope = "region/" + exp.region;
  for (const ExportGauge& g : exp.gauges) mib_.set_gauge(scope, g.name, g.value);
  mib_.set_gauge(scope, "export_sequence", static_cast<double>(exp.sequence));
  mib_.set_gauge(scope, "last_export_at", static_cast<double>(exp.exported_at));
  mib_.set_gauge(scope, "bw_drift_level", exp.drift.level);
  mib_.set_gauge(scope, "bw_drift_deviation_gbps", exp.drift.deviation_gbps);
  mib_.set_gauge(scope, "bw_drift_baseline_gbps", exp.drift.baseline_gbps);
  ++exports_ingested_;
  return exp.summaries.size();
}

std::size_t GlobalController::merge_pending() {
  // Drain the buffer under the ingest lock, then sort/append outside it:
  // the merged log belongs to the serial consumer phase, so holding
  // ingest_mutex_ across the sort would only stall concurrent exporters.
  std::vector<telemetry::WindowSummary> pending;
  {
    const std::lock_guard<std::mutex> lock(ingest_mutex_);
    pending.swap(pending_);
  }
  // Canonical single-controller emission order: retention seals day by day
  // (ascending) and merges each day's summaries by (src name, dst name,
  // window start). Reproducing it here is what makes the federated coarse
  // log byte-identical to the monolithic one once all exports are in.
  const util::IdSpace& ids = util::IdSpace::global();
  std::stable_sort(pending.begin(), pending.end(),
                   [&ids](const telemetry::WindowSummary& a, const telemetry::WindowSummary& b) {
                     const util::SimTime day_a = (a.window_start / util::kDay) * util::kDay;
                     const util::SimTime day_b = (b.window_start / util::kDay) * util::kDay;
                     if (day_a != day_b) return day_a < day_b;
                     if (a.pair != b.pair) return ids.pair_name_less(a.pair, b.pair);
                     return a.window_start < b.window_start;
                   });
  // Horizon ordering across merge calls: a batch must never start before a
  // day the global log already merged, or the canonical order breaks.
  if (!pending.empty() && !coarse_.summaries().empty()) {
    const util::SimTime merged_day =
        (coarse_.summaries().back().window_start / util::kDay) * util::kDay;
    const util::SimTime batch_day = (pending.front().window_start / util::kDay) * util::kDay;
    SMN_CHECK(batch_day >= merged_day,
              "merge_pending received summaries older than an already-merged day — "
              "horizon-ordered merges are what keep the global log byte-identical to "
              "the single-controller one");
  }
  for (telemetry::WindowSummary& row : pending) coarse_.append(row);
  return pending.size();
}

std::unique_ptr<RegionController> GlobalController::adopt_region(
    const std::string& region, CoreConfig config, std::size_t* recovered_records) {
  {
    const std::lock_guard<std::mutex> lock(ingest_mutex_);
    SMN_CHECK(last_sequence_.find(region) != last_sequence_.end(),
              "cannot adopt a region that is not a member of this federation");
  }
  // Replay outside the lock — adoption maps every spilled segment back and
  // must not stall the live regions' export streams.
  auto controller =
      RegionController::adopt(region, wan_, std::move(config), recovered_records);
  {
    // The adoptee starts a fresh export sequence at 1.
    const std::lock_guard<std::mutex> lock(ingest_mutex_);
    last_sequence_[region] = 0;
  }
  mib_.increment_counter("global", "regions_adopted");
  return controller;
}

te::FederatedTeReport GlobalController::run_global_te(
    const std::vector<lp::Commodity>& fine_commodities, const te::FederatedTeOptions& options) {
  SMN_CHECK(!fine_commodities.empty(), "global TE needs at least one commodity");
  const te::FederatedTeReport report =
      te::evaluate_federated_te(wan_, wan_.region_partition(), fine_commodities, options);
  // Without the flat reference solve the report's flat and fidelity fields
  // are placeholders, not measurements: publishing them would read as
  // "fidelity 0". The previous reference (if any) stays published.
  if (options.solve_flat) {
    mib_.set_gauge("global", "te_lambda_flat", report.lambda_flat);
    mib_.set_gauge("global", "te_throughput_fidelity", report.throughput_fidelity);
  }
  mib_.set_gauge("global", "te_lambda_federated", report.lambda_federated);
  mib_.set_gauge("global", "te_regions", static_cast<double>(report.regions));
  mib_.set_gauge("global", "te_coarse_commodities",
                 static_cast<double>(report.coarse_commodities));
  mib_.set_gauge("global", "te_refined_commodities",
                 static_cast<double>(report.refined_commodities));
  mib_.increment_counter("global", "te_solves");
  return report;
}

}  // namespace smn::smn
