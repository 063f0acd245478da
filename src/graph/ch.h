// Contraction hierarchy (CH) over a Digraph: an ordering-driven coarsening
// of the routing graph. Preprocessing contracts nodes in importance order
// (edge-difference heuristic, lazy-update priority queue, node-id
// tie-breaks), inserting shortcut arcs that record the two child arcs they
// bypass. Queries run a bidirectional upward Dijkstra over the hierarchy —
// a search space of tens of nodes instead of the whole WAN — and unpack
// shortcuts back to fine EdgeId paths, so existing Path consumers are
// untouched.
//
// Two build modes:
//   * static (default): witness searches prune shortcuts that a real path
//     already covers; weights are frozen at build time (Edge::weight or a
//     caller metric). Serves fixed-metric callers: failure sweeps and
//     hierarchical routing evaluation.
//   * customizable (ChOptions::customizable): witness pruning is skipped so
//     the shortcut structure is metric-independent chordal fill-in;
//     customize() re-weights every arc for a new metric in one ascending-
//     rank triangle pass. No library caller uses it: the MCF solver's
//     evolving dual lengths are served faster by flat source-batched
//     Dijkstra trees (lp/mcf.h).
//
// Failure scenarios never rebuild the hierarchy: ChFailureQuery masks downed
// fine edges at query time (arcs whose unpacked expansion contains a dead
// edge are skipped via a precomputed coverage index), runs a bounded local
// repair for invalidated shortcuts, certifies the masked result against the
// pristine distance, and falls back to flat Dijkstra for the rare queries
// the mask invalidates. Results are therefore exactly equal to flat masked
// Dijkstra on every query, by construction.
//
// Determinism: ordering, witness searches, and queries all tie-break by
// node id, so the hierarchy and every returned path are bit-identical
// across runs and thread counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "graph/shortest_path.h"

namespace smn::graph {

/// Build/query knobs. Defaults follow the usual CH literature values scaled
/// for WAN-sized graphs (hundreds to a few thousand nodes).
struct ChOptions {
  /// Witness searches give up after expanding paths this many hops deep.
  std::size_t witness_hop_limit = 16;
  /// Witness searches give up after settling this many nodes.
  std::size_t witness_settled_limit = 512;
  /// Bounded local repair of an invalidated shortcut settles at most this
  /// many nodes before declaring the shortcut unrepairable.
  std::size_t repair_settled_limit = 256;
  /// Skip witness pruning so the arc structure is metric-independent and
  /// customize() can re-weight it for evolving metrics (CCH-style).
  bool customizable = false;
};

/// Build statistics, for benches and DESIGN.md numbers.
struct ChStats {
  std::size_t nodes = 0;
  std::size_t fine_edges = 0;
  std::size_t arcs = 0;       ///< query arcs: original + surviving shortcuts
  std::size_t shortcuts = 0;  ///< arcs realized by two child arcs
  std::size_t witness_searches = 0;
  std::size_t witness_pruned = 0;  ///< candidate shortcuts killed by a witness
};

class ContractionHierarchy {
 public:
  static constexpr std::uint32_t kNoArc = std::numeric_limits<std::uint32_t>::max();

  /// One arc of the hierarchy's query graph. Original arcs carry the fine
  /// edge realizing them plus the range of parallel fine edges between the
  /// same endpoints; shortcuts carry the two child arcs they bypass.
  struct Arc {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    double weight = 0.0;
    /// Fine edge realizing the current weight; kInvalidEdge when the arc is
    /// realized through child_down + child_up.
    EdgeId fine_edge = kInvalidEdge;
    std::uint32_t child_down = kNoArc;  ///< realizing arc from -> middle
    std::uint32_t child_up = kNoArc;    ///< realizing arc middle -> to
    /// Range into parallel_pool(): every fine edge from -> to (original
    /// arcs only; empty for pure shortcuts).
    std::uint32_t parallel_begin = 0;
    std::uint32_t parallel_end = 0;

    bool is_shortcut() const noexcept { return parallel_begin == parallel_end; }
  };

  /// Builds the hierarchy over `g` with metric Edge::weight.
  void build(const Digraph& g, const ChOptions& options = {});

  /// Builds with an explicit per-edge metric (size g.edge_count(); +inf
  /// disables an edge for the static mode).
  void build(const Digraph& g, const std::vector<double>& edge_length,
             const ChOptions& options = {});

  /// Re-weights the fixed arc structure for a new metric in one ascending-
  /// rank lower-triangle pass. Requires a customizable build. +inf lengths
  /// disable edges. Queries issued afterwards are exact for the new metric.
  void customize(const std::vector<double>& edge_length);

  bool built() const noexcept { return !rank_.empty(); }
  std::size_t node_count() const noexcept { return rank_.size(); }
  std::size_t arc_count() const noexcept { return arcs_.size(); }
  const ChStats& stats() const noexcept { return stats_; }
  const ChOptions& options() const noexcept { return options_; }

  /// Contraction position of `node`: 0 = contracted first (least important).
  std::uint32_t rank(NodeId node) const { return rank_.at(node); }

  const Arc& arc(std::uint32_t id) const { return arcs_.at(id); }

  /// Arcs node -> higher-ranked neighbor (relaxed by forward searches).
  std::span<const std::uint32_t> forward_up(NodeId node) const {
    return {fwd_arcs_.data() + fwd_offset_[node], fwd_offset_[node + 1] - fwd_offset_[node]};
  }

  /// Arcs higher-ranked neighbor -> node (relaxed by backward searches).
  std::span<const std::uint32_t> backward_up(NodeId node) const {
    return {bwd_arcs_.data() + bwd_offset_[node], bwd_offset_[node + 1] - bwd_offset_[node]};
  }

  /// Fine edge ids backing the parallel ranges of original arcs.
  std::span<const EdgeId> parallel_pool() const noexcept { return parallel_pool_; }

  /// Current per-fine-edge metric (build metric, or the last customize()).
  std::span<const double> metric() const noexcept { return metric_; }

  /// metric() as a vector, for DijkstraWorkspace::Query::edge_length.
  const std::vector<double>& metric_vector() const noexcept { return metric_; }

  /// Query arcs whose unpacked expansion contains `fine_edge` (static
  /// builds only; empty spans for customizable builds).
  std::span<const std::uint32_t> covering_arcs(EdgeId fine_edge) const {
    return {cover_arcs_.data() + cover_offset_[fine_edge],
            cover_offset_[fine_edge + 1] - cover_offset_[fine_edge]};
  }

  /// Appends the fine-edge expansion of `arc_id` (in from -> to order) to
  /// `out`, using `stack` as scratch to avoid recursion.
  void append_unpacked(std::uint32_t arc_id, std::vector<EdgeId>& out,
                       std::vector<std::uint32_t>& stack) const;

 private:
  friend class ChBuilder;

  /// Query arc from -> to, if present in either upward adjacency; kNoArc
  /// otherwise. Used by the customize() triangle pass.
  std::uint32_t find_arc(NodeId from, NodeId to) const;

  ChOptions options_;
  ChStats stats_;
  std::vector<std::uint32_t> rank_;  ///< node -> contraction position
  std::vector<NodeId> order_;        ///< rank -> node (built on first customize)
  std::vector<Arc> arcs_;
  std::vector<EdgeId> parallel_pool_;
  std::vector<double> metric_;  ///< per fine edge; leftfold cost basis
  // CSR adjacency of the upward query graph, per direction.
  std::vector<std::size_t> fwd_offset_;
  std::vector<std::uint32_t> fwd_arcs_;
  std::vector<std::size_t> bwd_offset_;
  std::vector<std::uint32_t> bwd_arcs_;
  // CSR coverage index: fine edge -> arcs whose expansion contains it.
  std::vector<std::size_t> cover_offset_;
  std::vector<std::uint32_t> cover_arcs_;

  void build_coverage_index();
};

namespace detail {

/// 4-ary min-heap on (key, id) with strict lexicographic order, matching
/// DijkstraWorkspace's pop discipline so tie-breaks are deterministic.
struct ChHeap {
  std::vector<std::pair<double, std::uint32_t>> slots;

  bool empty() const noexcept { return slots.empty(); }
  void clear() noexcept { slots.clear(); }

  void push(std::pair<double, std::uint32_t> value) {
    slots.push_back(value);
    std::size_t i = slots.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (slots[parent] <= slots[i]) break;
      std::swap(slots[parent], slots[i]);
      i = parent;
    }
  }

  std::pair<double, std::uint32_t> pop() {
    const std::pair<double, std::uint32_t> top = slots.front();
    slots.front() = slots.back();
    slots.pop_back();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = i * 4 + 1;
      if (first >= slots.size()) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, slots.size());
      for (std::size_t c = first + 1; c < last; ++c) {
        if (slots[c] < slots[best]) best = c;
      }
      if (slots[i] <= slots[best]) break;
      std::swap(slots[i], slots[best]);
      i = best;
    }
    return top;
  }
};

/// An overlay repair arc standing in for an invalidated hierarchy arc
/// during one failure scenario: same endpoints and search direction, with
/// an explicit fine-edge realization valid under the scenario's mask.
struct ChRepairArc {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double weight = 0.0;
  bool forward_up = false;  ///< direction class of the replaced arc
  std::uint32_t pool_begin = 0;
  std::uint32_t pool_end = 0;
};

/// Per-scenario view handed to masked hierarchy searches: which arcs are
/// invalid this epoch, plus the scenario's repair arcs and their edge pool.
struct ChOverlayView {
  const std::uint32_t* invalid_stamp = nullptr;
  std::uint32_t epoch = 0;
  std::span<const ChRepairArc> repairs;
  std::span<const EdgeId> repair_pool;

  bool invalid(std::uint32_t arc_id) const noexcept {
    return invalid_stamp != nullptr && invalid_stamp[arc_id] == epoch;
  }
};

}  // namespace detail

/// Reusable bidirectional upward-search workspace. One instance serves one
/// thread; construction binds it to a hierarchy whose weights may still be
/// re-customized between queries.
class ChSearch {
 public:
  explicit ChSearch(const ContractionHierarchy& ch);

  /// Exact shortest path s -> t under the hierarchy's current metric.
  /// Reported cost is the left-fold of fine edge metrics along the unpacked
  /// path — the same association flat Dijkstra uses — and equals flat
  /// Dijkstra's distance. std::nullopt when unreachable; an empty zero-cost
  /// path when s == t.
  std::optional<Path> shortest_path(NodeId s, NodeId t);

  /// Masked variant driven by ChFailureQuery: skips arcs the overlay marks
  /// invalid and additionally relaxes its repair arcs. Internal API.
  std::optional<Path> shortest_path_masked(NodeId s, NodeId t,
                                           const detail::ChOverlayView& overlay);

 private:
  std::optional<Path> run(NodeId s, NodeId t, const detail::ChOverlayView* overlay);
  void relax_forward(NodeId u, double du, const detail::ChOverlayView* overlay);
  void relax_backward(NodeId u, double du, const detail::ChOverlayView* overlay);
  void improve(std::vector<double>& dist, std::vector<std::uint32_t>& parent,
               std::vector<std::uint32_t>& stamp, std::vector<NodeId>& touched, NodeId node,
               double candidate, std::uint32_t via_arc);
  /// Appends the expansion of `arc_id`, which may index overlay repairs
  /// (ids >= arc_count encode repair index + arc_count).
  void append_arc(std::uint32_t arc_id, const detail::ChOverlayView* overlay,
                  std::vector<EdgeId>& out);

  const ContractionHierarchy* ch_;
  std::vector<double> dist_f_, dist_b_;
  std::vector<std::uint32_t> parent_f_, parent_b_;
  std::vector<std::uint32_t> stamp_f_, stamp_b_;
  std::uint32_t generation_ = 0;
  std::vector<NodeId> touched_f_, touched_b_;
  detail::ChHeap heap_;
  std::vector<std::uint32_t> chain_;        ///< arc ids of the meet path
  std::vector<std::uint32_t> unpack_stack_; ///< append_unpacked scratch
  std::vector<EdgeId> fine_;                ///< unpacked fine-edge buffer
};

/// Certified failure-masked point queries: hierarchy fast path with flat
/// Dijkstra fallback, exactly matching flat masked Dijkstra on every query.
///
/// Per scenario, set_failures() invalidates every arc covering a dead fine
/// edge (no hierarchy rebuild), re-realizes original arcs from surviving
/// parallel edges, and attempts a bounded local repair of invalidated
/// shortcuts so equal-cost detours stay visible to the upward search.
/// query() then certifies the masked result against the pristine distance:
/// masked distances can only grow, so a masked path matching the pristine
/// cost is provably optimal. Anything uncertified falls back to flat masked
/// Dijkstra. One instance serves one thread; reuse it across scenarios.
class ChFailureQuery {
 public:
  struct Counters {
    std::size_t queries = 0;
    std::size_t pristine_hits = 0;  ///< pristine path untouched by the mask
    std::size_t certified = 0;      ///< masked upward search matched pristine cost
    std::size_t fallbacks = 0;      ///< flat masked Dijkstra resolved the query
    std::size_t repairs_attempted = 0;
    std::size_t repairs_succeeded = 0;
  };

  /// Requires a static (non-customizable) build over `g`.
  ChFailureQuery(const ContractionHierarchy& ch, const Digraph& g);

  /// Installs the scenario's dead fine edges, replacing the previous
  /// scenario's mask. Ids must be < g.edge_count().
  void set_failures(std::span<const EdgeId> dead);

  /// Exact masked shortest path s -> t. `pristine`, when non-null, is the
  /// caller's cached un-masked result for (s, t) (from ChSearch or flat
  /// Dijkstra); when null it is computed internally.
  std::optional<Path> query(NodeId s, NodeId t,
                            const std::optional<Path>* pristine = nullptr);

  const Counters& counters() const noexcept { return counters_; }
  const std::vector<bool>& edge_mask() const noexcept { return mask_; }

 private:
  void try_repair(std::uint32_t arc_id);

  const ContractionHierarchy* ch_;
  const Digraph* graph_;
  CsrAdjacency csr_;
  ChSearch masked_search_;
  ChSearch pristine_search_;
  DijkstraWorkspace flat_;
  Counters counters_;
  std::vector<bool> mask_;  ///< false = dead under the current scenario
  std::vector<EdgeId> dead_;
  std::vector<std::uint32_t> invalid_stamp_;  ///< per arc, == epoch_ when invalid
  std::uint32_t epoch_ = 0;
  std::vector<detail::ChRepairArc> repairs_;
  std::vector<EdgeId> repair_pool_;
  // Bounded repair search scratch (masked fine-graph Dijkstra).
  std::vector<double> repair_dist_;
  std::vector<EdgeId> repair_parent_;
  std::vector<std::uint32_t> repair_stamp_;
  std::uint32_t repair_generation_ = 0;
  detail::ChHeap repair_heap_;
  std::vector<EdgeId> repair_path_;
  std::optional<Path> pristine_scratch_;
};

}  // namespace smn::graph
