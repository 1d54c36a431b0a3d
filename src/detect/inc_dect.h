// IncDect: sequential localizable incremental error detection (paper §6.2).
//
// Given G with a pending batch update ΔG (the edge-state overlay), IncDect
// computes ΔVio(Σ, G, ΔG) = (ΔVio+, ΔVio-) by update-driven evaluation:
//
//   1. Every effective unit update (v,v') that can match some pattern edge
//      (u,u') of an NGD in Σ forms an UPDATE PIVOT hup(u,u') = (v,v').
//   2. IncMatch expands each pivot recursively (IncSubMatch), drawing
//      candidates only from neighbors of already-matched nodes — never
//      from a global scan. All work is confined to the d_Σ-neighborhood
//      of ΔG, which makes the algorithm localizable (§6.1).
//   3. View discipline: pivots from insertions search G ⊕ ΔG (kNew, which
//      excludes deleted edges); pivots from deletions search G (kOld,
//      which excludes inserted edges). Insertions only add violations,
//      deletions only remove them.
//   4. Duplicate suppression ("marks the combination of update pivots"):
//      a match found from pivot (update j, pattern edge p) is emitted only
//      if (j, p) is the lexicographically minimal update incidence of the
//      match; expansion additionally refuses update edges with index < j,
//      so each violation is enumerated exactly once across all pivots.
//
// The pieces (UpdateIndex, pivot tasks, filters, canonicality) are exposed
// so PIncDect can distribute the same work units across processors.

#ifndef NGD_DETECT_INC_DECT_H_
#define NGD_DETECT_INC_DECT_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "detect/dect.h"
#include "detect/violation.h"
#include "graph/delta_view.h"
#include "graph/neighborhood.h"
#include "graph/updates.h"
#include "match/homomorphism.h"

namespace ngd {

/// An update that actually changed the graph (cancelled-out records like
/// delete+reinsert of one edge are filtered against the overlay state).
struct EffectiveUpdate {
  UpdateKind kind;
  EdgeKey edge;
};

/// Index over the effective updates of a batch; positions define the pivot
/// order used for duplicate suppression.
class UpdateIndex {
 public:
  UpdateIndex(const Graph& g, const UpdateBatch& batch);

  const std::vector<EffectiveUpdate>& updates() const { return updates_; }

  /// Position of an inserted/deleted edge in the pivot order.
  std::optional<int> IndexOf(UpdateKind kind, const EdgeKey& key) const;

 private:
  std::vector<EffectiveUpdate> updates_;
  std::unordered_map<EdgeKey, int, EdgeKeyHash> insert_index_;
  std::unordered_map<EdgeKey, int, EdgeKeyHash> delete_index_;
};

/// Rejects update edges with pivot order below the current pivot, so each
/// match is reached from its minimal update edge only.
class PivotEdgeFilter : public EdgeFilter {
 public:
  PivotEdgeFilter(const UpdateIndex* index, UpdateKind kind, int pivot_index)
      : index_(index), kind_(kind), pivot_index_(pivot_index) {}

  bool Admit(int /*pattern_edge*/, NodeId src, NodeId dst,
             LabelId label) const override {
    auto i = index_->IndexOf(kind_, EdgeKey{src, dst, label});
    return !i.has_value() || *i >= pivot_index_;
  }

 private:
  const UpdateIndex* index_;
  UpdateKind kind_;
  int pivot_index_;
};

/// PivotEdgeFilter for the DeltaView backend. Duplicate suppression only
/// has to rank *update* edges, and the DeltaView knows structurally which
/// edges those are: anything outside its delta spans is a base edge and
/// is admitted with one CSR span check — no hash probe. Only genuine
/// delta entries (a |ΔG|-sized minority of everything a search touches)
/// fall through to the UpdateIndex lookup.
class DeltaViewPivotEdgeFilter : public EdgeFilter {
 public:
  DeltaViewPivotEdgeFilter(const DeltaView* dv, const UpdateIndex* index,
                           UpdateKind kind, int pivot_index)
      : dv_(dv), index_(index), kind_(kind), pivot_index_(pivot_index) {}

  bool Admit(int /*pattern_edge*/, NodeId src, NodeId dst,
             LabelId label) const override {
    if (!dv_->IsDeltaEdge(kind_ == UpdateKind::kInsert, src, dst, label)) {
      return true;
    }
    auto i = index_->IndexOf(kind_, EdgeKey{src, dst, label});
    return !i.has_value() || *i >= pivot_index_;
  }

 private:
  const DeltaView* dv_;
  const UpdateIndex* index_;
  UpdateKind kind_;
  int pivot_index_;
};

/// One unit of update-driven work: expand pivot hup(u,u') = (v,v') where
/// pattern edge `pattern_edge` of NGD `ngd_index` matches effective update
/// `update_index`.
struct PivotTask {
  int ngd_index;
  int pattern_edge;
  int update_index;
};

/// All pivot tasks for (Σ, ΔG): label-compatible (update, pattern-edge)
/// pairs.
std::vector<PivotTask> EnumeratePivotTasks(const Graph& g,
                                           const NgdSet& sigma,
                                           const UpdateIndex& index);

/// True iff (update_index, pattern_edge) is the minimal update incidence
/// of the full match `binding` — the emission-side duplicate check.
bool IsCanonicalPivot(const Graph& g, const Pattern& pattern,
                      const Binding& binding, const UpdateIndex& index,
                      UpdateKind kind, int update_index, int pattern_edge);

/// DeltaView-backed canonicality: ranking only ever concerns *update*
/// edges, so pattern edges whose bound graph edge is not a delta entry
/// are skipped with one CSR span check; only the (typically one) real
/// update edge of the match pays an UpdateIndex hash lookup. This is the
/// emission hot path — every violating match of every pivot runs it —
/// and the structural skip is a key part of the DeltaView speedup.
bool IsCanonicalPivot(const DeltaView& dv, const Pattern& pattern,
                      const Binding& binding, const UpdateIndex& index,
                      UpdateKind kind, int update_index, int pattern_edge);

/// Incremental detection requires every pattern to be connected with at
/// least one edge (edge updates cannot pivot edge-less patterns; the
/// paper's §6 preliminaries make the same connectivity assumption).
Status ValidateForIncremental(const NgdSet& sigma);

/// Affected-area prefilter (the localizability of paper §6.1 made
/// actionable before any pivot spawns): per rule Q, the d_Q-ball around
/// ΔG's endpoints — over the union of both views, so it bounds ΔVio+ and
/// ΔVio- searches alike — intersected with the label→nodes candidate
/// arrays. A rule whose ball lacks a candidate for some non-wildcard
/// pattern-node label cannot complete any match, so all its pivot tasks
/// are skipped; rules that survive get their ball as the search's node
/// scope. Balls are shared across rules of equal diameter.
///
/// The prefilter must never cost more than the localized searches it
/// guards, so ball extraction is budgeted: once a ball's BFS has visited
/// max(256, |V|/8) nodes it is abandoned as "unbounded" — ΔG saturates
/// the graph at that diameter, nothing would be pruned anyway — and the
/// affected rules run unscoped, exactly as with the prefilter off. Large
/// batches therefore pay O(budget) for the prefilter, small batches on
/// large graphs (the production regime) get real pruning.
class AffectedArea {
 public:
  AffectedArea(const Graph& g, const NgdSet& sigma, const UpdateIndex& index);

  /// d_Q-ball for rule `ngd_index` as a search scope, or nullptr when the
  /// ball exceeded the budget (valid while this object lives).
  const NodeSet* ScopeOf(int ngd_index) const {
    const int b = ball_of_rule_[ngd_index];
    return bounded_[b] ? &balls_[b] : nullptr;
  }
  /// False when some non-wildcard pattern-node label of the rule has no
  /// candidate inside its (bounded) ball.
  bool RuleCanMatch(int ngd_index) const { return rule_can_match_[ngd_index]; }

 private:
  std::vector<NodeSet> balls_;   // one per distinct pattern diameter
  std::vector<bool> bounded_;    // per ball: finished within budget
  std::vector<int> ball_of_rule_;
  std::vector<bool> rule_can_match_;
};

/// Run controls (RunControl): minimization runs the pivot machinery on the
/// kept rules only (per-rule deltas are independent, so kept-rule deltas
/// are preserved exactly); a rule's delta is complete when every one of
/// its pivot tasks finished; ΔVio+ spills under "<path_prefix>.add" and
/// ΔVio- under "<path_prefix>.rem".
struct IncDectOptions : RunControl {
  /// Pre-built snapshot of the base graph G — GraphView::kOld of `g`, or
  /// a snapshot taken before the batch was applied. When set, IncDect
  /// matches a DeltaView (this base ⊕ ΔG); when null, it matches the live
  /// overlay graph. Production keeps one per commit epoch and reuses it
  /// across batches. A base with more nodes than `g` is rejected.
  const GraphSnapshot* base_snapshot = nullptr;
  /// Enable the AffectedArea prefilter + per-rule search scope. Off
  /// reproduces the pre-prefilter engine exactly (the oracle config).
  bool affected_area_prefilter = true;
};

/// InvalidArgument unless `base` could describe G for `g`: the DeltaView
/// reads base adjacency ids against |V| of `g`, so a base with more
/// nodes than `g` would index past the engines' node-sized masks.
Status ValidateBaseSnapshot(const Graph& g, const GraphSnapshot* base);

/// Computes ΔVio(Σ, G, ΔG). `g` must carry ΔG as its pending overlay
/// (apply via ApplyUpdateBatch before calling; Commit afterwards).
/// Requires every pattern in Σ to be connected with ≥ 1 edge.
StatusOr<DeltaVio> IncDect(const Graph& g, const NgdSet& sigma,
                           const UpdateBatch& batch,
                           const IncDectOptions& opts = {});

}  // namespace ngd

#endif  // NGD_DETECT_INC_DECT_H_
