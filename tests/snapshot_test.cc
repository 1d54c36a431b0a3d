// GraphSnapshot (CSR, label-partitioned adjacency) correctness.
//
// Two layers of coverage:
//   1. Structural unit tests: the CSR ranges, candidate arrays, flat
//      attributes and binary-search HasEdge agree with the live Graph on
//      hand-built graphs, including overlay states and both views.
//   2. An equivalence property test (random graphs × generated Σ, both
//      views): snapshot-based Dect returns exactly the same VioSet as
//      live-graph Dect — the pre-snapshot engine is kept as the oracle
//      via DectOptions snapshot_mode = kNever. Runs under ASan/UBSan in
//      the sanitizer CI job like every other suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "detect/dect.h"
#include "discovery/ngd_generator.h"
#include "graph/accessor.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "test_util.h"

namespace ngd {
namespace {

std::vector<NodeId> ToVector(GraphSnapshot::IdRange r) {
  return std::vector<NodeId>(r.begin(), r.end());
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : schema_(Schema::Create()), g_(schema_) {
    person_ = schema_->InternLabel("person");
    city_ = schema_->InternLabel("city");
    knows_ = schema_->InternLabel("knows");
    likes_ = schema_->InternLabel("likes");
    lives_ = schema_->InternLabel("lives_in");
  }

  SchemaPtr schema_;
  Graph g_;
  LabelId person_, city_, knows_, likes_, lives_;
};

TEST_F(SnapshotTest, LabelPartitionedRangesAreSortedAndComplete) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(person_), d = g_.AddNode(city_);
  // Interleave labels so the partitioning actually has to regroup.
  ASSERT_TRUE(g_.AddEdge(a, c, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(a, d, lives_).ok());
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(a, b, likes_).ok());
  ASSERT_TRUE(g_.AddEdge(b, a, knows_).ok());

  GraphSnapshot snap(g_, GraphView::kNew);
  EXPECT_EQ(snap.NumNodes(), 4u);
  EXPECT_EQ(snap.NumEdges(), 5u);

  EXPECT_EQ(ToVector(snap.OutNeighbors(a, knows_)),
            (std::vector<NodeId>{b, c}));  // sorted by id
  EXPECT_EQ(ToVector(snap.OutNeighbors(a, likes_)),
            (std::vector<NodeId>{b}));
  EXPECT_EQ(ToVector(snap.OutNeighbors(a, lives_)),
            (std::vector<NodeId>{d}));
  EXPECT_TRUE(snap.OutNeighbors(a, person_).empty());  // not an edge label
  EXPECT_EQ(snap.OutDegree(a), 4u);
  EXPECT_EQ(snap.InDegree(a), 1u);

  EXPECT_EQ(ToVector(snap.InNeighbors(b, knows_)),
            (std::vector<NodeId>{a}));
  EXPECT_EQ(ToVector(snap.InNeighbors(d, lives_)),
            (std::vector<NodeId>{a}));
  EXPECT_TRUE(snap.OutNeighbors(d, lives_).empty());
}

TEST_F(SnapshotTest, HasEdgeMatchesLiveGraph) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(a, a, knows_).ok());  // self-loop
  ASSERT_TRUE(g_.AddEdge(b, c, lives_).ok());

  GraphSnapshot snap(g_, GraphView::kNew);
  for (NodeId s = 0; s < g_.NumNodes(); ++s) {
    for (NodeId d = 0; d < g_.NumNodes(); ++d) {
      for (LabelId l : {knows_, likes_, lives_}) {
        EXPECT_EQ(snap.HasEdge(s, d, l),
                  g_.HasEdge(s, d, l, GraphView::kNew))
            << s << "->" << d << " label " << l;
      }
    }
  }
  EXPECT_FALSE(snap.HasEdge(a, 99, knows_));  // out-of-range endpoint
}

TEST_F(SnapshotTest, ViewsResolveOverlayStates) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, knows_).ok());   // kOld only
  ASSERT_TRUE(g_.InsertEdge(b, c, knows_).ok());   // kNew only
  ASSERT_TRUE(g_.AddEdge(c, a, knows_).ok());      // both

  GraphSnapshot old_snap(g_, GraphView::kOld);
  GraphSnapshot new_snap(g_, GraphView::kNew);

  EXPECT_TRUE(old_snap.HasEdge(a, b, knows_));
  EXPECT_FALSE(new_snap.HasEdge(a, b, knows_));
  EXPECT_FALSE(old_snap.HasEdge(b, c, knows_));
  EXPECT_TRUE(new_snap.HasEdge(b, c, knows_));
  EXPECT_TRUE(old_snap.HasEdge(c, a, knows_));
  EXPECT_TRUE(new_snap.HasEdge(c, a, knows_));
  EXPECT_EQ(old_snap.NumEdges(), 2u);
  EXPECT_EQ(new_snap.NumEdges(), 2u);
}

TEST_F(SnapshotTest, CandidateArraysAndAttributes) {
  AttrId age = schema_->InternAttr("age");
  AttrId name = schema_->InternAttr("name");
  NodeId a = g_.AddNode(person_);
  NodeId b = g_.AddNode(city_);
  NodeId c = g_.AddNode(person_);
  g_.SetAttr(a, age, Value(int64_t{41}));
  g_.SetAttr(c, name, Value("carol"));
  g_.SetAttr(c, age, Value(int64_t{7}));

  GraphSnapshot snap(g_, GraphView::kNew);
  EXPECT_EQ(ToVector(snap.NodesWithLabel(person_)),
            (std::vector<NodeId>{a, c}));
  EXPECT_EQ(ToVector(snap.NodesWithLabel(city_)), (std::vector<NodeId>{b}));
  EXPECT_EQ(snap.CandidateCount(person_), 2u);
  EXPECT_TRUE(snap.NodesWithLabel(kWildcardLabel).empty());

  ASSERT_NE(snap.GetAttr(a, age), nullptr);
  EXPECT_EQ(snap.GetAttr(a, age)->AsInt(), 41);
  EXPECT_EQ(snap.GetAttr(a, name), nullptr);
  ASSERT_NE(snap.GetAttr(c, name), nullptr);
  EXPECT_EQ(snap.GetAttr(c, name)->AsString(), "carol");
  ASSERT_NE(snap.GetAttr(c, age), nullptr);
  EXPECT_EQ(snap.GetAttr(c, age)->AsInt(), 7);
  EXPECT_EQ(snap.GetAttr(b, age), nullptr);
}

TEST_F(SnapshotTest, AccessorServesBothBackendsIdentically) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(b, c, lives_).ok());
  GraphSnapshot snap(g_, GraphView::kNew);

  GraphAccessor live(g_, GraphView::kNew);
  GraphAccessor frozen(snap);
  for (const GraphAccessor* acc : {&live, &frozen}) {
    EXPECT_EQ(acc->NumNodes(), 3u);
    EXPECT_EQ(acc->NodeLabel(c), city_);
    EXPECT_TRUE(acc->HasEdge(a, b, knows_));
    EXPECT_FALSE(acc->HasEdge(b, a, knows_));
    EXPECT_EQ(acc->CandidateCount(person_), 2u);
    EXPECT_EQ(acc->CandidateCount(kWildcardLabel), 3u);
    std::vector<NodeId> nbrs;
    acc->ForEachNeighbor(a, /*out=*/true, knows_, [&](NodeId w) {
      nbrs.push_back(w);
      return true;
    });
    EXPECT_EQ(nbrs, (std::vector<NodeId>{b}));
    std::vector<NodeId> cands;
    acc->ForEachCandidate(person_, [&](NodeId v) {
      cands.push_back(v);
      return true;
    });
    std::sort(cands.begin(), cands.end());
    EXPECT_EQ(cands, (std::vector<NodeId>{a, b}));
  }
}

TEST_F(SnapshotTest, WantSnapshotCostModel) {
  // Empty graph: nothing to amortize.
  NgdSet empty_sigma;
  EXPECT_FALSE(WantSnapshot(g_, empty_sigma));

  for (int i = 0; i < 50; ++i) {
    NodeId a = g_.AddNode(person_), b = g_.AddNode(person_);
    ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  }
  NodeId lone_city = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(0, lone_city, lives_).ok());

  auto make_rule = [&](LabelId start_label) {
    Pattern p;
    int x = p.AddNode("x", start_label);
    int y = p.AddNode("y", kWildcardLabel);
    EXPECT_TRUE(
        p.AddEdge(x, y, start_label == city_ ? lives_ : knows_).ok());
    return Ngd("r", std::move(p), {}, {});
  };

  // A handful of selective rules (one candidate each): live engine.
  NgdSet selective;
  for (int i = 0; i < 4; ++i) selective.Add(make_rule(city_));
  EXPECT_FALSE(WantSnapshot(g_, selective));

  // Many unselective rules (every person is a seed): seed volume crosses
  // the 8|V| threshold and the snapshot build amortizes.
  NgdSet broad;
  for (int i = 0; i < 12; ++i) broad.Add(make_rule(person_));
  EXPECT_TRUE(WantSnapshot(g_, broad));

  // Pending-overlay regression: delete every edge (pending, uncommitted).
  // kNew is now edge-empty — a snapshot of it would be pointless — while
  // kOld still holds the full graph. The guard and the seed counting must
  // agree on the view being detected: the old code summed kNew+kOld edges
  // but counted candidates on kNew, so this graph took the wrong branch.
  std::vector<std::tuple<NodeId, NodeId, LabelId>> edges;
  GraphAccessor acc(g_, GraphView::kNew);
  for (NodeId v = 0; v < g_.NumNodes(); ++v) {
    for (const LabelId lbl : {knows_, lives_}) {
      acc.ForEachNeighbor(v, /*out=*/true, lbl, [&](NodeId w) {
        edges.emplace_back(v, w, lbl);
        return true;
      });
    }
  }
  ASSERT_FALSE(edges.empty());
  for (const auto& [src, dst, lbl] : edges) {
    ASSERT_TRUE(g_.DeleteEdge(src, dst, lbl).ok());
  }
  ASSERT_EQ(g_.NumEdges(GraphView::kNew), 0u);
  ASSERT_GT(g_.NumEdges(GraphView::kOld), 0u);
  EXPECT_FALSE(WantSnapshot(g_, broad));                  // detected view kNew
  EXPECT_FALSE(WantSnapshot(g_, broad, GraphView::kNew));
  EXPECT_TRUE(WantSnapshot(g_, broad, GraphView::kOld));  // kOld unaffected
  g_.Rollback();
}

// kAuto is the seed-volume rule alone: violation density does not veto the
// build. Every node of this ring is a seed of all 8 rules (seed volume
// 8|V|) and every seed expands into 6 violations, so a graph where
// emission dominates still takes the snapshot — and the snapshot engine
// reports exactly the live engine's violations.
TEST(SnapshotCostModelTest, ViolationDenseBigSweepTakesSnapshot) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  constexpr int kNodes = 60;
  constexpr int kFanout = 6;
  for (int i = 0; i < kNodes; ++i) {
    g.SetAttr(g.AddNode("reading"), "val", Value(int64_t{i}));
  }
  for (int i = 0; i < kNodes; ++i) {
    for (int k = 1; k <= kFanout; ++k) {
      ASSERT_TRUE(g.AddEdge(static_cast<NodeId>(i),
                            static_cast<NodeId>((i + k) % kNodes), "near")
                      .ok());
    }
  }
  std::string text;
  for (int r = 0; r < 8; ++r) {
    text += "ngd same" + std::to_string(r) +
            " { match (x:reading)-[near]->(y:reading) then x.val = y.val }\n";
  }
  const NgdSet sigma = testing_util::MustParse(text, schema);
  ASSERT_EQ(sigma.size(), 8u);

  EXPECT_TRUE(WantSnapshot(g, sigma));
  EXPECT_TRUE(ResolveSnapshot(g, sigma, SnapshotMode::kAuto));
  DectOptions live_opts;
  live_opts.snapshot_mode = SnapshotMode::kNever;
  const std::vector<Violation> live = Dect(g, sigma, live_opts).Sorted();
  const std::vector<Violation> automatic = Dect(g, sigma).Sorted();
  EXPECT_EQ(live.size(), 8u * kNodes * kFanout);
  EXPECT_EQ(automatic, live);
}

// ---- Equivalence property: snapshot Dect == live Dect ----------------------

struct EquivCase {
  const char* name;
  size_t nodes;
  size_t edges;
  size_t rules;
  double wildcard_prob;
  uint64_t seed;
};

void PrintTo(const EquivCase& c, std::ostream* os) { *os << c.name; }

class SnapshotEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(SnapshotEquivalenceTest, DectAgreesOnBothViews) {
  const EquivCase& ec = GetParam();
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(ec.nodes, ec.edges, ec.seed),
                         schema);

  NgdGenOptions gen;
  gen.count = ec.rules;
  gen.max_diameter = 3;
  gen.seed = ec.seed + 1;
  gen.violation_rate = 0.2;
  gen.wildcard_prob = ec.wildcard_prob;
  NgdSet sigma = GenerateNgdSet(*g, gen);
  ASSERT_GT(sigma.size(), 0u);

  // Put the overlay in play so kOld and kNew genuinely differ.
  UpdateGenOptions up;
  up.fraction = 0.12;
  up.seed = ec.seed + 2;
  UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
  ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());

  for (GraphView view : {GraphView::kOld, GraphView::kNew}) {
    DectOptions live_opts{{}, view, 0, SnapshotMode::kNever};
    DectOptions snap_opts{{}, view, 0, SnapshotMode::kAlways};
    VioSet live = Dect(*g, sigma, live_opts);
    VioSet snap = Dect(*g, sigma, snap_opts);
    ASSERT_EQ(live.size(), snap.size())
        << ec.name << " view " << static_cast<int>(view);
    for (const auto& v : live.items()) {
      EXPECT_TRUE(snap.Contains(v))
          << "snapshot Dect missing a violation of rule "
          << sigma[v.ngd_index].name();
    }
    // PDect over the shared snapshot agrees too.
    PDectOptions popts;
    popts.num_processors = 3;
    popts.view = view;
    VioSet parallel = PDect(*g, sigma, popts).vio;
    EXPECT_EQ(parallel.size(), live.size());
    for (const auto& v : parallel.items()) {
      EXPECT_TRUE(live.Contains(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, SnapshotEquivalenceTest,
    ::testing::Values(
        EquivCase{"small", 300, 700, 12, 0.05, 201},
        EquivCase{"medium", 800, 2000, 12, 0.05, 202},
        EquivCase{"dense", 400, 2400, 10, 0.05, 203},
        EquivCase{"wildcard_heavy", 400, 1200, 10, 0.5, 204},
        EquivCase{"sparse", 1200, 1500, 10, 0.15, 205},
        EquivCase{"seed_variant", 500, 1200, 12, 0.25, 206}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      return info.param.name;
    });

// The hand-written paper fixture must agree as well: G4 × φ4 is the
// Example 3 fake-account violation (multi-edge pattern, linear literal
// with coefficients).
TEST(SnapshotFixtureTest, PaperRulesAgreeLiveVsSnapshot) {
  testing_util::NamedGraph g4 = testing_util::BuildG4();
  NgdSet rules = testing_util::MustParse(testing_util::kPhi4, g4.schema);
  ASSERT_EQ(rules.size(), 1u);

  DectOptions live_opts{{}, GraphView::kNew, 0, SnapshotMode::kNever};
  DectOptions snap_opts{{}, GraphView::kNew, 0, SnapshotMode::kAlways};
  VioSet live = Dect(*g4.graph, rules, live_opts);
  VioSet snap = Dect(*g4.graph, rules, snap_opts);
  EXPECT_EQ(live.size(), 1u);  // the Example 3 violation
  ASSERT_EQ(snap.size(), live.size());
  for (const auto& v : live.items()) EXPECT_TRUE(snap.Contains(v));
}

}  // namespace
}  // namespace ngd
