// The upper tier of the two-level federation (DESIGN.md §12). The
// GlobalController never sees fine telemetry: it ingests only CoarseExport
// messages — each region's sealed window summaries, gauges, and drift —
// validates them (known region, strictly increasing sequence), and merges
// the buffered summaries into one global coarse log in the canonical
// single-controller emission order. Global TE runs over the coarse
// inter-region graph through evaluate_federated_te: the flat global MCF
// solve plus the per-region refinement fan-out, gated against the flat
// single-controller solve.
//
// Merge fidelity: when every pair is owned by exactly one region and all
// exports covering a horizon have been ingested before merge_pending(),
// the merged log is byte-identical to what a single controller's
// coarsen_older_than() would have produced over the union of the fine
// telemetry — the federation's correctness invariant (tested in
// test_smn_federation.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "smn/coarse_export.h"
#include "smn/control_plane.h"
#include "smn/region_controller.h"
#include "te/coarse_te.h"
#include "telemetry/time_coarsening.h"
#include "topology/wan.h"
#include "util/thread_annotations.h"

namespace smn::smn {

class GlobalController {
 public:
  /// Registers every region of `wan` as a federation member. `wan` must
  /// outlive the controller.
  explicit GlobalController(const topology::WanTopology& wan);
  explicit GlobalController(topology::WanTopology&&) = delete;

  Mib& mib() noexcept { return mib_; }
  const topology::WanTopology& wan() const noexcept { return wan_; }
  std::size_t region_count() const SMN_EXCLUDES(ingest_mutex_) {
    const std::lock_guard<std::mutex> lock(ingest_mutex_);
    return last_sequence_.size();
  }

  /// Validates and buffers one region export: SMN_CHECK-fails on an unknown
  /// region or a sequence number not strictly above the region's last.
  /// Pair names are re-interned into this process's id space; gauges and
  /// drift land in the MIB under "region/<name>". Returns summaries
  /// buffered. Thread-safe: region export streams may ingest concurrently.
  std::size_t ingest_export(const CoarseExport& exp) SMN_EXCLUDES(ingest_mutex_);

  /// Merges every buffered summary into the global coarse log in the
  /// canonical order (day ascending, then src name, dst name, window
  /// start — the single-controller coarsen_older_than emission order).
  /// Returns summaries merged.
  std::size_t merge_pending() SMN_EXCLUDES(ingest_mutex_);

  /// The global coarse view assembled from region exports so far. The
  /// reference reads the merge phase's output; do not hold it across a
  /// concurrent merge_pending().
  const telemetry::CoarseBandwidthLog& coarse() const noexcept { return coarse_; }

  /// Summaries ingested but not yet merged.
  std::size_t pending_count() const SMN_EXCLUDES(ingest_mutex_) {
    const std::lock_guard<std::mutex> lock(ingest_mutex_);
    return pending_.size();
  }

  /// Failover: constructs a replacement RegionController over the dead
  /// instance's spill directory (stealing its lock, replaying its spilled
  /// segments) and resets the region's export sequence so the adoptee
  /// starts a fresh sequence at 1. See RegionController::adopt.
  std::unique_ptr<RegionController> adopt_region(const std::string& region,
                                                 CoreConfig config,
                                                 std::size_t* recovered_records = nullptr)
      SMN_EXCLUDES(ingest_mutex_);

  /// Runs the federated TE pipeline over the WAN's region partition and
  /// publishes the fidelity/solve gauges under "global". The flat-reference
  /// gauges (te_lambda_flat, te_throughput_fidelity) are published only
  /// when options.solve_flat ran that reference. `fine_commodities` index
  /// into `wan().graph()` node ids.
  te::FederatedTeReport run_global_te(const std::vector<lp::Commodity>& fine_commodities,
                                      const te::FederatedTeOptions& options = {});

  std::uint64_t exports_ingested() const SMN_EXCLUDES(ingest_mutex_) {
    const std::lock_guard<std::mutex> lock(ingest_mutex_);
    return exports_ingested_;
  }

 private:
  const topology::WanTopology& wan_;
  Mib mib_;
  /// Serializes concurrent region export streams: the sequence table, the
  /// pending buffer, and the ingest counter all move under it. The merged
  /// coarse log is deliberately outside — merge_pending()/coarse() are the
  /// global tier's serial consumer phase.
  mutable std::mutex ingest_mutex_;
  /// Region -> last accepted export sequence (0 = none yet). Keys double as
  /// the membership set.
  std::map<std::string, std::uint64_t> last_sequence_ SMN_GUARDED_BY(ingest_mutex_);
  /// Summaries buffered by ingest_export, awaiting the canonical merge.
  std::vector<telemetry::WindowSummary> pending_ SMN_GUARDED_BY(ingest_mutex_);
  telemetry::CoarseBandwidthLog coarse_;
  std::uint64_t exports_ingested_ SMN_GUARDED_BY(ingest_mutex_) = 0;
};

}  // namespace smn::smn
