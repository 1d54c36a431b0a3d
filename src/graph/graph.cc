#include "graph/graph.h"

#include <algorithm>
#include <cstddef>
#include <sstream>

namespace ngd {
namespace {

constexpr size_t kMinEdgeSlots = 16;

}  // namespace

const std::vector<NodeId> Graph::kEmptyNodeList;

Graph::Graph(SchemaPtr schema) : schema_(std::move(schema)) {}

NodeId Graph::AddNode(LabelId label) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRecord{label, {}});
  out_.emplace_back();
  in_.emplace_back();
  if (label >= label_index_.size()) label_index_.resize(label + 1);
  label_index_[label].push_back(id);
  return id;
}

NodeId Graph::AddNode(std::string_view label_name) {
  return AddNode(schema_->InternLabel(label_name));
}

void Graph::SetAttr(NodeId v, AttrId attr, Value value) {
  auto& attrs = nodes_[v].attrs;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), attr,
      [](const auto& p, AttrId a) { return p.first < a; });
  if (it != attrs.end() && it->first == attr) {
    it->second = std::move(value);
  } else {
    attrs.insert(it, {attr, std::move(value)});
  }
}

void Graph::SetAttr(NodeId v, std::string_view attr_name, Value value) {
  SetAttr(v, schema_->InternAttr(attr_name), std::move(value));
}

const Value* Graph::GetAttr(NodeId v, AttrId attr) const {
  const auto& attrs = nodes_[v].attrs;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), attr,
      [](const auto& p, AttrId a) { return p.first < a; });
  if (it != attrs.end() && it->first == attr) return &it->second;
  return nullptr;
}

Status Graph::AddEdge(NodeId src, NodeId dst, LabelId label) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (!edge_index_.TryEmplace(EdgeKey{src, dst, label}, EdgeState::kBase)
           .second) {
    return Status::AlreadyExists("edge already exists");
  }
  out_[src].push_back({dst, label, EdgeState::kBase});
  in_[dst].push_back({src, label, EdgeState::kBase});
  ++num_base_edges_;
  return Status::OK();
}

void Graph::ReserveEdges(const std::vector<uint32_t>& out_degree,
                         const std::vector<uint32_t>& in_degree) {
  size_t added = 0;
  for (NodeId v = 0; v < out_degree.size(); ++v) {
    out_[v].reserve(out_[v].size() + out_degree[v]);
    added += out_degree[v];
  }
  for (NodeId v = 0; v < in_degree.size(); ++v) {
    in_[v].reserve(in_[v].size() + in_degree[v]);
  }
  edge_index_.Reserve(added);
}

Status Graph::AddEdge(NodeId src, NodeId dst, std::string_view label_name) {
  return AddEdge(src, dst, schema_->InternLabel(label_name));
}

Status Graph::InsertEdge(NodeId src, NodeId dst, LabelId label) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  EdgeKey key{src, dst, label};
  auto [state, added] = edge_index_.TryEmplace(key, EdgeState::kInserted);
  if (!added) {
    if (*state == EdgeState::kDeleted) {
      // Reinsert of a deleted edge: net effect is the edge stays; it is in
      // both views again. Fold to base and drop both pending ops.
      *state = EdgeState::kBase;
      SetEdgeState(src, dst, label, EdgeState::kBase);
      ++num_base_edges_;
      --num_deleted_edges_;
      --pending_updates_;
      return Status::OK();
    }
    return Status::AlreadyExists("edge already exists in current view");
  }
  pending_keys_.push_back(key);
  out_[src].push_back({dst, label, EdgeState::kInserted});
  in_[dst].push_back({src, label, EdgeState::kInserted});
  ++num_inserted_edges_;
  ++pending_updates_;
  return Status::OK();
}

Status Graph::DeleteEdge(NodeId src, NodeId dst, LabelId label) {
  EdgeKey key{src, dst, label};
  EdgeState* state = edge_index_.Find(key);
  if (state == nullptr || *state == EdgeState::kDeleted) {
    return Status::NotFound("edge not present in G ⊕ ΔG");
  }
  if (*state == EdgeState::kInserted) {
    // Deleting a pending insertion cancels it.
    edge_index_.Erase(key);
    RemoveAdjEntries(src, dst, label);
    --num_inserted_edges_;
    --pending_updates_;
    return Status::OK();
  }
  *state = EdgeState::kDeleted;
  pending_keys_.push_back(key);
  SetEdgeState(src, dst, label, EdgeState::kDeleted);
  --num_base_edges_;
  ++num_deleted_edges_;
  ++pending_updates_;
  return Status::OK();
}

void Graph::SetEdgeState(NodeId src, NodeId dst, LabelId label,
                         EdgeState state) {
  for (auto& e : out_[src]) {
    if (e.other == dst && e.label == label) {
      e.state = state;
      break;
    }
  }
  for (auto& e : in_[dst]) {
    if (e.other == src && e.label == label) {
      e.state = state;
      break;
    }
  }
}

void Graph::RemoveAdjEntries(NodeId src, NodeId dst, LabelId label) {
  auto erase_one = [](std::vector<AdjEntry>& v, NodeId other, LabelId l) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i].other == other && v[i].label == l) {
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  };
  erase_one(out_[src], dst, label);
  erase_one(in_[dst], src, label);
}

void Graph::FoldOverlay(EdgeState drop) {
  std::vector<NodeId> srcs;
  std::vector<NodeId> dsts;
  srcs.reserve(pending_keys_.size());
  dsts.reserve(pending_keys_.size());
  for (const EdgeKey& key : pending_keys_) {
    EdgeState* state = edge_index_.Find(key);
    // A later op may have cancelled this one (insert -> delete erased the
    // key, delete -> reinsert rebased it), and a key recorded twice is
    // already folded the second time round.
    if (state == nullptr || *state == EdgeState::kBase) continue;
    if (*state == drop) {
      edge_index_.Erase(key);
    } else {
      *state = EdgeState::kBase;
    }
    srcs.push_back(key.src);
    dsts.push_back(key.dst);
  }
  pending_keys_.clear();

  // One stable compaction per touched adjacency list, however many of its
  // edges were pending.
  auto sweep = [drop](std::vector<NodeId>& nodes,
                      std::vector<std::vector<AdjEntry>>& adj) {
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    for (NodeId v : nodes) {
      std::vector<AdjEntry>& list = adj[v];
      list.erase(std::remove_if(list.begin(), list.end(),
                                [drop](const AdjEntry& e) {
                                  return e.state == drop;
                                }),
                 list.end());
      for (AdjEntry& e : list) e.state = EdgeState::kBase;
    }
  };
  sweep(srcs, out_);
  sweep(dsts, in_);
  num_inserted_edges_ = 0;
  num_deleted_edges_ = 0;
  pending_updates_ = 0;
}

void Graph::Commit() {
  num_base_edges_ += num_inserted_edges_;
  FoldOverlay(EdgeState::kDeleted);
}

void Graph::Rollback() {
  num_base_edges_ += num_deleted_edges_;
  FoldOverlay(EdgeState::kInserted);
}

size_t Graph::NumEdges(GraphView view) const {
  return view == GraphView::kOld ? num_base_edges_ + num_deleted_edges_
                                 : num_base_edges_ + num_inserted_edges_;
}

bool Graph::HasEdge(NodeId src, NodeId dst, LabelId label,
                    GraphView view) const {
  const EdgeState* state = edge_index_.Find(EdgeKey{src, dst, label});
  return state != nullptr && EdgeInView(*state, view);
}

std::optional<EdgeState> Graph::EdgeStateOf(NodeId src, NodeId dst,
                                            LabelId label) const {
  const EdgeState* state = edge_index_.Find(EdgeKey{src, dst, label});
  if (state == nullptr) return std::nullopt;
  return *state;
}

size_t Graph::Degree(NodeId v, GraphView view) const {
  size_t d = 0;
  for (const auto& e : out_[v]) d += EdgeInView(e.state, view) ? 1 : 0;
  for (const auto& e : in_[v]) d += EdgeInView(e.state, view) ? 1 : 0;
  return d;
}

const std::vector<NodeId>& Graph::NodesWithLabel(LabelId label) const {
  if (label >= label_index_.size()) return kEmptyNodeList;
  return label_index_[label];
}

// ---- EdgeIndex --------------------------------------------------------------

size_t Graph::EdgeIndex::Probe(const EdgeKey& key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = EdgeKeyHash{}(key) & mask;
  // Terminates: load <= 1/2 leaves an empty slot in every cycle.
  while (slots_[i].key.src != kInvalidNode && !(slots_[i].key == key)) {
    i = (i + 1) & mask;
  }
  return i;
}

EdgeState* Graph::EdgeIndex::Find(const EdgeKey& key) {
  if (slots_.empty()) return nullptr;
  Slot& slot = slots_[Probe(key)];
  return slot.key.src == kInvalidNode ? nullptr : &slot.state;
}

const EdgeState* Graph::EdgeIndex::Find(const EdgeKey& key) const {
  if (slots_.empty()) return nullptr;
  const Slot& slot = slots_[Probe(key)];
  return slot.key.src == kInvalidNode ? nullptr : &slot.state;
}

std::pair<EdgeState*, bool> Graph::EdgeIndex::TryEmplace(const EdgeKey& key,
                                                         EdgeState state) {
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(std::max(kMinEdgeSlots, 2 * slots_.size()));
  }
  Slot& slot = slots_[Probe(key)];
  if (slot.key.src != kInvalidNode) return {&slot.state, false};
  slot = Slot{key, state};
  ++size_;
  return {&slot.state, true};
}

void Graph::EdgeIndex::Erase(const EdgeKey& key) {
  const size_t mask = slots_.size() - 1;
  size_t hole = Probe(key);
  // Backward shift: walk the rest of the run and move into the hole every
  // entry whose home slot does not lie cyclically in (hole, j], so each
  // remaining key stays reachable from its home without a tombstone.
  for (size_t j = (hole + 1) & mask; slots_[j].key.src != kInvalidNode;
       j = (j + 1) & mask) {
    const size_t home = EdgeKeyHash{}(slots_[j].key) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].key.src = kInvalidNode;
  --size_;
}

void Graph::EdgeIndex::Reserve(size_t n) {
  size_t num_slots = kMinEdgeSlots;
  while (num_slots < 2 * (size_ + n)) num_slots *= 2;
  if (num_slots > slots_.size()) Rehash(num_slots);
}

void Graph::EdgeIndex::Rehash(size_t num_slots) {
  std::vector<Slot> old(num_slots,
                        Slot{EdgeKey{kInvalidNode, 0, 0}, EdgeState::kBase});
  old.swap(slots_);
  for (const Slot& slot : old) {
    if (slot.key.src != kInvalidNode) slots_[Probe(slot.key)] = slot;
  }
}

std::string Graph::DebugString() const {
  std::ostringstream os;
  os << "Graph{" << NumNodes() << " nodes, " << NumEdges(GraphView::kNew)
     << " edges (new view), " << NumEdges(GraphView::kOld)
     << " edges (old view)}\n";
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    os << "  [" << v << "] " << NodeLabelName(v);
    for (const auto& [a, val] : nodes_[v].attrs) {
      os << " " << schema_->attrs().NameOf(a) << "=" << val.ToString();
    }
    os << "\n";
    for (const auto& e : out_[v]) {
      os << "    -[" << schema_->labels().NameOf(e.label) << "]-> " << e.other
         << (e.state == EdgeState::kInserted
                 ? " (+)"
                 : e.state == EdgeState::kDeleted ? " (-)" : "")
         << "\n";
    }
  }
  return os.str();
}

}  // namespace ngd
