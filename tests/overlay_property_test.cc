// Randomized model-checking of the Graph edge-state overlay.
//
// The overlay (kBase/kInserted/kDeleted with kOld/kNew views) is the
// foundation every incremental result rests on, so it is fuzzed here
// against a trivially-correct reference model: two plain edge sets (old
// view, new view) updated by the same random operation sequence. After
// every operation and after Commit/Rollback the views must agree exactly.
// A second fuzz checks the fold itself against snapshot fingerprints taken
// just before it, with cancelling op sequences inside one overlay. A third
// drives the edge index through a large churn (thousands of edges, many
// table doublings, long erase runs at every fold) against the same kind of
// reference model.
//
// NGD_OVERLAY_CASES resizes the churn fuzz (sanitizer CI runs a reduced
// one).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/snapshot.h"
#include "graph/snapshot_io.h"
#include "util/rng.h"

namespace ngd {
namespace {

using EdgeTuple = std::tuple<NodeId, NodeId, LabelId>;

struct ReferenceModel {
  std::set<EdgeTuple> old_view;
  std::set<EdgeTuple> new_view;
};

class OverlayFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverlayFuzzTest, ViewsMatchReferenceModel) {
  Rng rng(GetParam());
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  constexpr int kNodes = 12;
  constexpr int kLabels = 3;
  for (int i = 0; i < kNodes; ++i) g.AddNode("n");
  std::vector<LabelId> labels;
  for (int i = 0; i < kLabels; ++i) {
    labels.push_back(schema->InternLabel("e" + std::to_string(i)));
  }

  ReferenceModel ref;
  auto check = [&](const char* when, int step) {
    for (NodeId s = 0; s < kNodes; ++s) {
      for (NodeId d = 0; d < kNodes; ++d) {
        for (LabelId l : labels) {
          EdgeTuple key{s, d, l};
          ASSERT_EQ(g.HasEdge(s, d, l, GraphView::kOld),
                    ref.old_view.count(key) > 0)
              << when << " step " << step << " old view edge " << s << "->"
              << d;
          ASSERT_EQ(g.HasEdge(s, d, l, GraphView::kNew),
                    ref.new_view.count(key) > 0)
              << when << " step " << step << " new view edge " << s << "->"
              << d;
        }
      }
    }
    ASSERT_EQ(g.NumEdges(GraphView::kOld), ref.old_view.size());
    ASSERT_EQ(g.NumEdges(GraphView::kNew), ref.new_view.size());
  };

  // Seed some base edges.
  for (int i = 0; i < 20; ++i) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    NodeId d = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    LabelId l = rng.PickFrom(labels);
    if (s == d) continue;
    if (g.AddEdge(s, d, l).ok()) {
      ref.old_view.insert({s, d, l});
      ref.new_view.insert({s, d, l});
    }
  }
  check("after seeding", -1);

  for (int step = 0; step < 300; ++step) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    NodeId d = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    LabelId l = rng.PickFrom(labels);
    EdgeTuple key{s, d, l};
    int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < 4) {
      // InsertEdge: succeeds iff absent from the new view.
      bool expect_ok = ref.new_view.count(key) == 0 && s < kNodes &&
                       d < kNodes;
      Status st = g.InsertEdge(s, d, l);
      ASSERT_EQ(st.ok(), expect_ok) << st.ToString();
      if (st.ok()) ref.new_view.insert(key);
    } else if (op < 8) {
      // DeleteEdge: succeeds iff present in the new view.
      bool expect_ok = ref.new_view.count(key) > 0;
      Status st = g.DeleteEdge(s, d, l);
      ASSERT_EQ(st.ok(), expect_ok) << st.ToString();
      if (st.ok()) ref.new_view.erase(key);
    } else if (op == 8) {
      g.Commit();
      ref.old_view = ref.new_view;
    } else {
      g.Rollback();
      ref.new_view = ref.old_view;
    }
    check("after op", step);
  }

  // Terminal commit must leave a consistent, overlay-free graph.
  g.Commit();
  ref.old_view = ref.new_view;
  EXPECT_FALSE(g.HasPendingUpdate());
  check("after final commit", 301);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Adjacency-list consistency under the same fuzz: every edge visible in a
// view must appear in both endpoint adjacency lists with the right state.
TEST(OverlayAdjacencyTest, AdjacencyMirrorsEdgeIndex) {
  Rng rng(99);
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  for (int i = 0; i < 10; ++i) g.AddNode("n");
  LabelId l = schema->InternLabel("e");
  for (int step = 0; step < 200; ++step) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, 9));
    NodeId d = static_cast<NodeId>(rng.UniformInt(0, 9));
    if (s == d) continue;
    // Random ops legitimately fail (duplicate insert, missing delete);
    // the property under test only cares about the surviving edge set.
    switch (rng.UniformInt(0, 3)) {
      case 0:
        (void)g.AddEdge(s, d, l);
        break;
      case 1:
        (void)g.InsertEdge(s, d, l);
        break;
      case 2:
        (void)g.DeleteEdge(s, d, l);
        break;
      default:
        if (rng.Bernoulli(0.5)) {
          g.Commit();
        } else {
          g.Rollback();
        }
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      for (const auto& e : g.OutEdges(v)) {
        auto state = g.EdgeStateOf(v, e.other, e.label);
        ASSERT_TRUE(state.has_value());
        ASSERT_EQ(*state, e.state);
        // The mirror entry exists in the in-list with the same state.
        bool found = false;
        for (const auto& in : g.InEdges(e.other)) {
          if (in.other == v && in.label == e.label) {
            ASSERT_EQ(in.state, e.state);
            found = true;
          }
        }
        ASSERT_TRUE(found);
      }
    }
  }
}

uint64_t Fingerprint(const Graph& g, GraphView view) {
  return SnapshotFingerprint(GraphSnapshot(g, view));
}

// A folded graph has no overlay left: every adjacency entry is kBase, no
// list names the same (other, label) twice, and both views agree.
void ExpectFolded(const Graph& g, const std::string& when) {
  EXPECT_FALSE(g.HasPendingUpdate()) << when;
  EXPECT_EQ(g.NumEdges(GraphView::kOld), g.NumEdges(GraphView::kNew)) << when;
  EXPECT_EQ(Fingerprint(g, GraphView::kOld), Fingerprint(g, GraphView::kNew))
      << when;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const auto* list : {&g.OutEdges(v), &g.InEdges(v)}) {
      std::set<std::pair<NodeId, LabelId>> seen;
      for (const AdjEntry& e : *list) {
        EXPECT_EQ(e.state, EdgeState::kBase) << when << " node " << v;
        EXPECT_TRUE(seen.insert({e.other, e.label}).second)
            << when << " node " << v << " lists " << e.other << " twice";
      }
    }
  }
}

class FoldEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FoldEquivalenceTest, FoldMatchesPreFoldFingerprints) {
  Rng rng(GetParam());
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  constexpr int kNodes = 40;
  for (int i = 0; i < kNodes; ++i) g.AddNode(i % 3 == 0 ? "a" : "b");
  std::vector<LabelId> labels;
  for (int i = 0; i < 3; ++i) {
    labels.push_back(schema->InternLabel("e" + std::to_string(i)));
  }
  // Node 0 is a hub, so one fold touches its lists many times over.
  auto random_key = [&]() {
    NodeId s = rng.Bernoulli(0.3)
                   ? 0
                   : static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    NodeId d = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    if (rng.Bernoulli(0.5)) std::swap(s, d);
    return EdgeKey{s, d, rng.PickFrom(labels)};
  };
  for (int i = 0; i < 150; ++i) {
    const EdgeKey k = random_key();
    (void)g.AddEdge(k.src, k.dst, k.label);  // duplicates fail harmlessly
  }

  for (int round = 0; round < 40; ++round) {
    const std::string when = "round " + std::to_string(round);
    // Round 7 cancels down to nothing: every op is undone in the overlay.
    const bool cancel_all = round == 7;
    const int ops = cancel_all ? 0 : static_cast<int>(rng.UniformInt(1, 30));
    for (int i = 0; i < ops; ++i) {
      const EdgeKey k = random_key();
      if (rng.Bernoulli(0.5)) {
        (void)g.InsertEdge(k.src, k.dst, k.label);
      } else {
        (void)g.DeleteEdge(k.src, k.dst, k.label);
      }
    }
    // Cancelling sequences inside the overlay: insert -> delete -> insert
    // on an edge absent from both views, and delete -> reinsert -> delete
    // on a base edge; `cancel_all` stops each one a step early.
    for (int i = 0; i < 4; ++i) {
      const EdgeKey k = random_key();
      const auto state = g.EdgeStateOf(k.src, k.dst, k.label);
      if (!state.has_value()) {
        ASSERT_TRUE(g.InsertEdge(k.src, k.dst, k.label).ok()) << when;
        ASSERT_TRUE(g.DeleteEdge(k.src, k.dst, k.label).ok()) << when;
        if (!cancel_all) {
          ASSERT_TRUE(g.InsertEdge(k.src, k.dst, k.label).ok()) << when;
        }
      } else if (*state == EdgeState::kBase) {
        ASSERT_TRUE(g.DeleteEdge(k.src, k.dst, k.label).ok()) << when;
        ASSERT_TRUE(g.InsertEdge(k.src, k.dst, k.label).ok()) << when;
        if (!cancel_all) {
          ASSERT_TRUE(g.DeleteEdge(k.src, k.dst, k.label).ok()) << when;
        }
      }
    }
    if (cancel_all) {
      ASSERT_FALSE(g.HasPendingUpdate()) << when;
    }

    const uint64_t old_fp = Fingerprint(g, GraphView::kOld);
    const uint64_t new_fp = Fingerprint(g, GraphView::kNew);
    Graph copy = g;  // copied mid-overlay
    Graph rolled = g;
    rolled.Rollback();
    EXPECT_EQ(Fingerprint(rolled, GraphView::kNew), old_fp) << when;
    ExpectFolded(rolled, when + " rollback");

    const bool commit = cancel_all || rng.Bernoulli(0.7);
    if (commit) {
      g.Commit();
      copy.Commit();
    } else {
      g.Rollback();
      copy.Rollback();
    }
    EXPECT_EQ(Fingerprint(g, GraphView::kNew), commit ? new_fp : old_fp)
        << when;
    EXPECT_EQ(Fingerprint(copy, GraphView::kNew),
              Fingerprint(g, GraphView::kNew))
        << when;
    ExpectFolded(g, when);
    ExpectFolded(copy, when + " copy");
    if (cancel_all) {
      EXPECT_EQ(new_fp, old_fp) << when;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Adjacency order is unspecified, but a fold is stable: a list reads as
// insertion order minus the dropped entries, whatever the edge index's
// iteration order. An insert cancelled inside the overlay leaves no gap.
TEST(OverlayAdjacencyTest, FoldKeepsInsertionOrderMinusDroppedEntries) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  for (int i = 0; i < 10; ++i) g.AddNode("n");
  const LabelId l = schema->InternLabel("e");
  for (NodeId d = 1; d <= 6; ++d) ASSERT_TRUE(g.AddEdge(0, d, l).ok());
  auto targets = [&]() {
    std::vector<NodeId> out;
    for (const AdjEntry& e : g.OutEdges(0)) out.push_back(e.other);
    return out;
  };

  ASSERT_TRUE(g.DeleteEdge(0, 2, l).ok());
  ASSERT_TRUE(g.InsertEdge(0, 8, l).ok());
  ASSERT_TRUE(g.InsertEdge(0, 7, l).ok());
  ASSERT_TRUE(g.DeleteEdge(0, 5, l).ok());
  ASSERT_TRUE(g.InsertEdge(0, 9, l).ok());
  ASSERT_TRUE(g.DeleteEdge(0, 8, l).ok());  // cancels the pending insert
  g.Rollback();
  EXPECT_EQ(targets(), (std::vector<NodeId>{1, 2, 3, 4, 5, 6}));

  ASSERT_TRUE(g.DeleteEdge(0, 2, l).ok());
  ASSERT_TRUE(g.InsertEdge(0, 8, l).ok());
  ASSERT_TRUE(g.InsertEdge(0, 7, l).ok());
  ASSERT_TRUE(g.DeleteEdge(0, 5, l).ok());
  ASSERT_TRUE(g.InsertEdge(0, 9, l).ok());
  ASSERT_TRUE(g.DeleteEdge(0, 8, l).ok());
  g.Commit();
  EXPECT_EQ(targets(), (std::vector<NodeId>{1, 3, 4, 6, 7, 9}));
  for (NodeId d : {1u, 3u, 4u, 6u, 7u, 9u}) {
    ASSERT_EQ(g.InEdges(d).size(), 1u);
    EXPECT_EQ(g.InEdges(d)[0].state, EdgeState::kBase);
  }
  EXPECT_TRUE(g.InEdges(2).empty());
  EXPECT_TRUE(g.InEdges(8).empty());
}

size_t OverlayCaseCount() {
  const char* env = std::getenv("NGD_OVERLAY_CASES");
  if (env != nullptr) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 4;
}

// The state the reference model gives an edge: kBase in both views,
// kInserted in the new view only, kDeleted in the old view only.
std::optional<EdgeState> ModelState(const ReferenceModel& ref,
                                    const EdgeTuple& key) {
  const bool in_old = ref.old_view.count(key) > 0;
  const bool in_new = ref.new_view.count(key) > 0;
  if (in_old && in_new) return EdgeState::kBase;
  if (in_new) return EdgeState::kInserted;
  if (in_old) return EdgeState::kDeleted;
  return std::nullopt;
}

void ExpectEdgeMatchesModel(const Graph& g, const ReferenceModel& ref,
                            const EdgeTuple& key, const std::string& when) {
  const auto [s, d, l] = key;
  ASSERT_EQ(g.HasEdge(s, d, l, GraphView::kOld), ref.old_view.count(key) > 0)
      << when << " old view edge " << s << "->" << d << " label " << l;
  ASSERT_EQ(g.HasEdge(s, d, l, GraphView::kNew), ref.new_view.count(key) > 0)
      << when << " new view edge " << s << "->" << d << " label " << l;
  ASSERT_EQ(g.EdgeStateOf(s, d, l), ModelState(ref, key))
      << when << " state of " << s << "->" << d << " label " << l;
}

// Lookups with an endpoint outside [0, NumNodes()) find nothing, and
// deleting such an edge is NotFound, however full the table is.
void ExpectOutOfRangeAbsent(Graph& g, NodeId in_range, LabelId l,
                            const std::string& when) {
  const NodeId past_end = static_cast<NodeId>(g.NumNodes());
  const std::pair<NodeId, NodeId> keys[] = {
      {kInvalidNode, in_range}, {in_range, kInvalidNode},
      {kInvalidNode, kInvalidNode}, {past_end, in_range},
      {in_range, past_end}};
  for (const auto& [s, d] : keys) {
    EXPECT_FALSE(g.HasEdge(s, d, l, GraphView::kOld)) << when;
    EXPECT_FALSE(g.HasEdge(s, d, l, GraphView::kNew)) << when;
    EXPECT_EQ(g.EdgeStateOf(s, d, l), std::nullopt) << when;
    EXPECT_EQ(g.DeleteEdge(s, d, l).code(), StatusCode::kNotFound) << when;
  }
}

// After a fold: every model edge is kBase in both views, every key the
// epoch touched but the model lacks is absent, and the counts agree.
void ExpectFoldMatchesModel(const Graph& g, const ReferenceModel& ref,
                            const std::vector<EdgeTuple>& touched,
                            const std::string& when) {
  ASSERT_FALSE(g.HasPendingUpdate()) << when;
  ASSERT_EQ(g.NumEdges(GraphView::kOld), ref.old_view.size()) << when;
  ASSERT_EQ(g.NumEdges(GraphView::kNew), ref.new_view.size()) << when;
  for (const EdgeTuple& key : ref.new_view) {
    ASSERT_NO_FATAL_FAILURE(ExpectEdgeMatchesModel(g, ref, key, when));
  }
  for (const EdgeTuple& key : touched) {
    ASSERT_NO_FATAL_FAILURE(ExpectEdgeMatchesModel(g, ref, key, when));
  }
}

// Large churn through the edge index: the table grows from empty through
// many doublings, and every fold erases a few hundred keys from runs of
// a half-full table. A mid-overlay copy replays the rest of the run and
// must fold identically.
TEST(EdgeIndexChurnTest, LargeChurnMatchesReferenceModel) {
  constexpr int kNodes = 3000;
  constexpr int kLabels = 4;
  constexpr int kOps = 20000;
  constexpr int kCopyAt = kOps / 2;
  for (uint64_t seed = 1; seed <= OverlayCaseCount(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    SchemaPtr schema = Schema::Create();
    Graph g(schema);
    for (int i = 0; i < kNodes; ++i) g.AddNode(i % 2 == 0 ? "a" : "b");
    std::vector<LabelId> labels;
    for (int i = 0; i < kLabels; ++i) {
      labels.push_back(schema->InternLabel("e" + std::to_string(i)));
    }
    ReferenceModel ref;
    std::vector<EdgeTuple> inserted;  // delete targets; may be stale
    std::vector<EdgeTuple> touched;   // keys of this epoch's ops
    std::optional<Graph> copy;
    int next_fold = static_cast<int>(rng.UniformInt(100, 600));

    for (int op = 0; op < kOps; ++op) {
      const std::string when = "op " + std::to_string(op);
      if (!copy.has_value() && op >= kCopyAt && g.HasPendingUpdate()) {
        copy.emplace(g);
      }
      EdgeTuple key;
      const bool insert = rng.Bernoulli(0.6);
      if (insert || inserted.empty() || rng.Bernoulli(0.3)) {
        key = EdgeTuple{static_cast<NodeId>(rng.UniformInt(0, kNodes - 1)),
                        static_cast<NodeId>(rng.UniformInt(0, kNodes - 1)),
                        rng.PickFrom(labels)};
      } else {
        key = rng.PickFrom(inserted);
      }
      const auto [s, d, l] = key;
      Status st;
      if (insert) {
        st = g.InsertEdge(s, d, l);
        ASSERT_EQ(st.ok(), ref.new_view.count(key) == 0)
            << when << " " << st.ToString();
        if (st.ok()) {
          ref.new_view.insert(key);
          inserted.push_back(key);
        }
      } else {
        st = g.DeleteEdge(s, d, l);
        ASSERT_EQ(st.ok(), ref.new_view.count(key) > 0)
            << when << " " << st.ToString();
        if (st.ok()) ref.new_view.erase(key);
      }
      if (copy.has_value()) {
        const Status copy_st =
            insert ? copy->InsertEdge(s, d, l) : copy->DeleteEdge(s, d, l);
        ASSERT_EQ(copy_st.code(), st.code()) << when << " copy";
      }
      touched.push_back(key);
      ASSERT_NO_FATAL_FAILURE(ExpectEdgeMatchesModel(g, ref, key, when));

      if (op + 1 < next_fold && op + 1 < kOps) continue;
      next_fold = op + 1 + static_cast<int>(rng.UniformInt(100, 600));
      const bool commit = rng.Bernoulli(0.75);
      if (commit) {
        g.Commit();
        ref.old_view = ref.new_view;
      } else {
        g.Rollback();
        ref.new_view = ref.old_view;
      }
      ASSERT_NO_FATAL_FAILURE(
          ExpectFoldMatchesModel(g, ref, touched, when + " fold"));
      ExpectOutOfRangeAbsent(g, d, l, when + " fold");
      if (copy.has_value()) {
        if (commit) {
          copy->Commit();
        } else {
          copy->Rollback();
        }
        ASSERT_NO_FATAL_FAILURE(
            ExpectFoldMatchesModel(*copy, ref, touched, when + " copy fold"));
        ASSERT_EQ(Fingerprint(*copy, GraphView::kNew),
                  Fingerprint(g, GraphView::kNew))
            << when;
      }
      touched.clear();
    }
    EXPECT_TRUE(copy.has_value());
    // Growth from an empty table to this many edges doubles the table
    // far more than three times.
    EXPECT_GT(g.NumEdges(GraphView::kNew), 2000u);
  }
}

}  // namespace
}  // namespace ngd
