// Directed property multigraph with an edge-state overlay.
//
// G = (V, E, L, F_A) per paper §2: nodes and edges carry labels from Γ,
// nodes carry attribute tuples with values from U. Edges are identified by
// (src, dst, label) — parallel edges with distinct labels are allowed.
//
// Incremental detection (paper §5.2) needs two views of the graph at once:
//   - GraphView::kOld — G (before the batch update ΔG)
//   - GraphView::kNew — G ⊕ ΔG (after)
// Instead of materializing both, each edge carries a state:
//   kBase      in both views
//   kInserted  only in kNew (insert(v,v') ∈ ΔG+)
//   kDeleted   only in kOld (delete(v,v') ∈ ΔG-)
// Commit() folds the overlay after ΔVio has been computed; Rollback()
// discards the pending update instead.
//
// Cost: the graph records the key of every edge that InsertEdge/DeleteEdge
// puts into a pending state, so Commit() and Rollback() walk only those
// keys and then sweep each touched endpoint's adjacency list once:
// O(|ΔG| log |ΔG| + total degree of the touched endpoints), independent
// of |E|. DeleteEdge, and an InsertEdge that cancels a pending delete,
// still scan the endpoint lists (O(degree) each).
//
// Adjacency order is unspecified; callers that need an order sort (as
// GraphSnapshot does). A fold is stable: the surviving entries of a list
// keep their relative order, so a list reads as insertion order minus the
// dropped entries.
//
// Edge states live in a flat open-addressing table (linear probing on
// EdgeKeyHash, power-of-two capacity at load <= 1/2): 16 bytes a slot,
// 32-64 bytes per edge at the edge count's high-water mark (the table
// never shrinks), and no heap allocation per edge. Erasing an entry
// shifts the rest of its probe run back instead of leaving a tombstone, so
// the erase churn of Commit()/Rollback() never lengthens a probe run and
// the table never needs a clean-up rebuild.
//
// Bulk builders that know every node's degree up front (snapshot
// materialization, TSV ingest) call ReserveEdges() once before AddEdge(),
// so neither the edge index nor the adjacency lists regrow edge by edge.

#ifndef NGD_GRAPH_GRAPH_H_
#define NGD_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/dictionary.h"
#include "graph/value.h"
#include "util/status.h"

namespace ngd {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

enum class EdgeState : uint8_t {
  kBase = 0,
  kInserted = 1,
  kDeleted = 2,
};

enum class GraphView : uint8_t {
  kOld = 0,  ///< G: base + deleted edges
  kNew = 1,  ///< G ⊕ ΔG: base + inserted edges
};

/// True iff an edge in `state` exists in `view`.
inline bool EdgeInView(EdgeState state, GraphView view) {
  switch (state) {
    case EdgeState::kBase:
      return true;
    case EdgeState::kInserted:
      return view == GraphView::kNew;
    case EdgeState::kDeleted:
      return view == GraphView::kOld;
  }
  return false;
}

/// Adjacency entry: one directed edge endpoint, with label and state.
struct AdjEntry {
  NodeId other;
  LabelId label;
  EdgeState state;
};

/// Canonical edge identity.
struct EdgeKey {
  NodeId src;
  NodeId dst;
  LabelId label;

  bool operator==(const EdgeKey& o) const {
    return src == o.src && dst == o.dst && label == o.label;
  }
};

struct EdgeKeyHash {
  size_t operator()(const EdgeKey& k) const {
    uint64_t h = (uint64_t(k.src) << 32) | k.dst;
    h ^= uint64_t(k.label) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }
};

class Graph {
 public:
  explicit Graph(SchemaPtr schema);

  const SchemaPtr& schema() const { return schema_; }

  // ---- Construction -------------------------------------------------------

  /// Adds a node with the given label; returns its id.
  NodeId AddNode(LabelId label);
  NodeId AddNode(std::string_view label_name);

  /// Sets (or overwrites) attribute A on node v.
  void SetAttr(NodeId v, AttrId attr, Value value);
  void SetAttr(NodeId v, std::string_view attr_name, Value value);

  /// Adds a base edge (present in both views). Fails with kAlreadyExists if
  /// the (src, dst, label) edge already exists in any state.
  Status AddEdge(NodeId src, NodeId dst, LabelId label);
  Status AddEdge(NodeId src, NodeId dst, std::string_view label_name);

  /// Sizes the edge index and adjacency lists for `out_degree[v]` more
  /// outgoing and `in_degree[v]` more incoming edges at each node v, ahead
  /// of a run of AddEdge() calls. Both vectors are indexed by NodeId and
  /// hold at most NumNodes() entries. Only capacity changes.
  void ReserveEdges(const std::vector<uint32_t>& out_degree,
                    const std::vector<uint32_t>& in_degree);

  // ---- Batch-update overlay (ΔG) ------------------------------------------

  /// Records insert(src, dst, label) ∈ ΔG+. The edge becomes visible in
  /// kNew only. Fails if the edge already exists in kNew.
  Status InsertEdge(NodeId src, NodeId dst, LabelId label);

  /// Records delete(src, dst, label) ∈ ΔG-. A base edge is marked deleted
  /// (still visible in kOld); deleting a pending kInserted edge removes it
  /// outright. Fails if no such edge exists in kNew.
  Status DeleteEdge(NodeId src, NodeId dst, LabelId label);

  /// Folds the overlay: inserted edges become base, deleted edges vanish.
  /// Costs O(|ΔG| log |ΔG| + degree of the touched endpoints), not O(|E|).
  void Commit();

  /// Discards the overlay: inserted edges vanish, deleted edges revert.
  /// Same cost as Commit().
  void Rollback();

  /// True if any kInserted/kDeleted edge is pending.
  bool HasPendingUpdate() const { return pending_updates_ > 0; }

  // ---- Inspection ----------------------------------------------------------

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges(GraphView view) const;

  LabelId NodeLabel(NodeId v) const { return nodes_[v].label; }
  const std::string& NodeLabelName(NodeId v) const {
    return schema_->labels().NameOf(nodes_[v].label);
  }

  /// nullptr when the node does not carry the attribute. Matching semantics
  /// depend on this (paper §3: "node v = h(x) carries attribute A").
  const Value* GetAttr(NodeId v, AttrId attr) const;
  const std::vector<std::pair<AttrId, Value>>& Attrs(NodeId v) const {
    return nodes_[v].attrs;
  }

  bool HasEdge(NodeId src, NodeId dst, LabelId label, GraphView view) const;

  /// Current overlay state of an edge, or nullopt if absent from both
  /// views. Incremental detection uses this to recognize update records
  /// that cancelled out (e.g. delete + reinsert of the same edge).
  std::optional<EdgeState> EdgeStateOf(NodeId src, NodeId dst,
                                       LabelId label) const;

  /// Raw adjacency including all states; callers filter with EdgeInView.
  const std::vector<AdjEntry>& OutEdges(NodeId v) const { return out_[v]; }
  const std::vector<AdjEntry>& InEdges(NodeId v) const { return in_[v]; }

  /// Degree (out + in) counting edges visible in `view`.
  size_t Degree(NodeId v, GraphView view) const;

  /// Total adjacency length (both directions, all states); the parallel
  /// cost model uses this as |v.adj|.
  size_t AdjSize(NodeId v) const { return out_[v].size() + in_[v].size(); }

  /// All node ids with the given label (label-indexed candidates).
  const std::vector<NodeId>& NodesWithLabel(LabelId label) const;

  std::string DebugString() const;

 private:
  struct NodeRecord {
    LabelId label;
    std::vector<std::pair<AttrId, Value>> attrs;  // sorted by AttrId
  };

  /// Shared body of Commit/Rollback: edges in state `drop` vanish, edges in
  /// the other pending state become kBase; clears the overlay.
  void FoldOverlay(EdgeState drop);
  void SetEdgeState(NodeId src, NodeId dst, LabelId label, EdgeState state);
  void RemoveAdjEntries(NodeId src, NodeId dst, LabelId label);

  // (src, dst, label) -> EdgeState, open addressing with linear probing.
  // An empty slot has src == kInvalidNode, which no stored key has
  // (AddEdge/InsertEdge reject out-of-range endpoints), so a lookup of an
  // out-of-range key stops at the first empty slot and finds nothing.
  class EdgeIndex {
   public:
    /// The state of `key`, or nullptr if absent. Valid until the next
    /// TryEmplace/Erase/Reserve.
    EdgeState* Find(const EdgeKey& key);
    const EdgeState* Find(const EdgeKey& key) const;
    /// Adds `key` in `state` unless present; returns its state slot and
    /// whether it was added (try_emplace semantics).
    std::pair<EdgeState*, bool> TryEmplace(const EdgeKey& key,
                                           EdgeState state);
    /// Removes `key`, which must be present, by backward shift.
    void Erase(const EdgeKey& key);
    /// Room for `n` more keys at load <= 1/2 without regrowing.
    void Reserve(size_t n);

   private:
    struct Slot {
      EdgeKey key;
      EdgeState state;
    };
    /// The slot holding `key`, else the empty slot ending its probe run.
    /// Requires a non-empty table.
    size_t Probe(const EdgeKey& key) const;
    void Rehash(size_t num_slots);

    std::vector<Slot> slots_;  // empty, or a power-of-two count
    size_t size_ = 0;
  };

  SchemaPtr schema_;
  std::vector<NodeRecord> nodes_;
  std::vector<std::vector<AdjEntry>> out_;
  std::vector<std::vector<AdjEntry>> in_;
  EdgeIndex edge_index_;
  // Keys InsertEdge/DeleteEdge made pending since the last fold, in op
  // order; may repeat a key or name one a later op cancelled.
  std::vector<EdgeKey> pending_keys_;
  std::vector<std::vector<NodeId>> label_index_;  // label -> node ids
  size_t num_base_edges_ = 0;
  size_t num_inserted_edges_ = 0;
  size_t num_deleted_edges_ = 0;
  size_t pending_updates_ = 0;
  static const std::vector<NodeId> kEmptyNodeList;
};

}  // namespace ngd

#endif  // NGD_GRAPH_GRAPH_H_
