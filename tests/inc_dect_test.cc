#include <gtest/gtest.h>

#include <vector>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

using testing_util::BuildG4;
using testing_util::MustParse;

class IncDectTest : public ::testing::Test {
 protected:
  IncDectTest() : schema_(Schema::Create()), g_(schema_) {
    n_ = schema_->InternLabel("n");
    e_ = schema_->InternLabel("e");
    v_ = schema_->InternAttr("v");
    rules_ = MustParse("ngd r { match (x:n)-[e]->(y:n) then x.v <= y.v }",
                       schema_);
  }

  NodeId AddValueNode(int64_t value) {
    NodeId id = g_.AddNode(n_);
    g_.SetAttr(id, v_, Value(value));
    return id;
  }

  SchemaPtr schema_;
  Graph g_;
  LabelId n_, e_;
  AttrId v_;
  NgdSet rules_;
};

TEST_F(IncDectTest, InsertionIntroducesViolation) {
  NodeId a = AddValueNode(10), b = AddValueNode(5);
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, a, b, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules_, batch);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->added.size(), 1u);
  EXPECT_TRUE(delta->removed.empty());
  EXPECT_TRUE(delta->added.Contains(Violation{0, {a, b}}));
}

TEST_F(IncDectTest, InsertionOfCleanEdgeAddsNothing) {
  NodeId a = AddValueNode(5), b = AddValueNode(10);
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, a, b, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules_, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST_F(IncDectTest, DeletionRemovesViolation) {
  NodeId a = AddValueNode(10), b = AddValueNode(5);
  ASSERT_TRUE(g_.AddEdge(a, b, e_).ok());
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kDelete, a, b, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules_, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->added.empty());
  EXPECT_EQ(delta->removed.size(), 1u);
  EXPECT_TRUE(delta->removed.Contains(Violation{0, {a, b}}));
}

TEST_F(IncDectTest, DeletionOfCleanEdgeRemovesNothing) {
  NodeId a = AddValueNode(5), b = AddValueNode(10);
  ASSERT_TRUE(g_.AddEdge(a, b, e_).ok());
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kDelete, a, b, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules_, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST_F(IncDectTest, CancelledUpdatesProduceNoDelta) {
  NodeId a = AddValueNode(10), b = AddValueNode(5);
  ASSERT_TRUE(g_.AddEdge(a, b, e_).ok());
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kDelete, a, b, e_});
  batch.updates.push_back({UpdateKind::kInsert, a, b, e_});  // reinsert
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules_, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty()) << "delete+reinsert must cancel out";
}

TEST_F(IncDectTest, MatchWithTwoInsertedEdgesReportedOnce) {
  // Pattern x->y->z; both edges inserted in the same batch.
  NgdSet rules = MustParse(
      "ngd r2 { match (x:n)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v }",
      schema_);
  NodeId a = AddValueNode(10), b = AddValueNode(7), c = AddValueNode(5);
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, a, b, e_});
  batch.updates.push_back({UpdateKind::kInsert, b, c, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added.size(), 1u);
}

TEST_F(IncDectTest, HomomorphicFoldOnPivotEdgeReportedOnce) {
  // Pattern x->y, y->z where both pattern edges can map onto the SAME
  // inserted graph edge via folding (a->a self-loop).
  NgdSet rules = MustParse(
      "ngd r2 { match (x:n)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v }",
      schema_);
  NodeId a = AddValueNode(10);
  // Self-loop insertion: x=y=z=a. x.v <= z.v holds (10 <= 10): clean.
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, a, a, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());

  g_.Commit();
  // Now a violating fold: y.v > z.v impossible on a fold... use a second
  // node with a cycle a->b, b->a and values 10, 5: matches (a,b,a) clean
  // 10<=10, (b,a,b) clean 5<=5, (a,b: x=a,y=b,z=a)... all folds land on
  // x=z so x.v <= z.v always holds. Use x.v < z.v to force violations.
  NgdSet strict = MustParse(
      "ngd r3 { match (x:n)-[e]->(y:n), (y)-[e]->(z:n) then x.v < z.v }",
      schema_);
  NodeId b = AddValueNode(5);
  UpdateBatch batch2;
  batch2.updates.push_back({UpdateKind::kInsert, a, b, e_});
  batch2.updates.push_back({UpdateKind::kInsert, b, a, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch2).ok());
  auto delta2 = IncDect(g_, strict, batch2);
  ASSERT_TRUE(delta2.ok());
  // Violating matches in G ⊕ ΔG using the new edges:
  //   (a,b,a): 10 < 10 false -> violation
  //   (b,a,b): 5 < 5 false  -> violation
  //   (a,a,b) etc. need self-loop a->a which exists from batch 1 (now
  //   base): (a,a,b): 10 < 5 false -> violation (uses inserted a->b);
  //   (b,a,a): uses inserted b->a and base a->a: 5 < 10 true -> clean;
  //   (a,a,a): base only -> not update-driven, and 10 < 10 is false but
  //   it was already a violation before this batch.
  EXPECT_EQ(delta2->added.size(), 3u);
  for (const auto& v : delta2->added.items()) {
    EXPECT_EQ(v.nodes.size(), 3u);
  }
}

TEST_F(IncDectTest, MixedBatchProducesBothDeltas) {
  NodeId a = AddValueNode(10), b = AddValueNode(5);
  NodeId c = AddValueNode(9), d = AddValueNode(3);
  ASSERT_TRUE(g_.AddEdge(a, b, e_).ok());  // existing violation
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kDelete, a, b, e_});
  batch.updates.push_back({UpdateKind::kInsert, c, d, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules_, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added.size(), 1u);
  EXPECT_EQ(delta->removed.size(), 1u);
  EXPECT_TRUE(delta->added.Contains(Violation{0, {c, d}}));
  EXPECT_TRUE(delta->removed.Contains(Violation{0, {a, b}}));
}

TEST_F(IncDectTest, LiteralXPreconditionRespected) {
  NgdSet rules = MustParse(
      "ngd r { match (x:n)-[e]->(y:n) where x.v >= 100 then y.v >= 50 }",
      schema_);
  NodeId rich = AddValueNode(200), poor = AddValueNode(10);
  NodeId low = AddValueNode(5);
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, rich, low, e_});
  batch.updates.push_back({UpdateKind::kInsert, poor, low, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  auto delta = IncDect(g_, rules, batch);
  ASSERT_TRUE(delta.ok());
  // Only the rich->low edge satisfies X and violates Y.
  ASSERT_EQ(delta->added.size(), 1u);
  EXPECT_TRUE(delta->added.Contains(Violation{0, {rich, low}}));
}

TEST_F(IncDectTest, RejectsEdgelessPattern) {
  NgdSet rules = MustParse("ngd r { match (x:n) then x.v >= 0 }", schema_);
  UpdateBatch batch;
  auto delta = IncDect(g_, rules, batch);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IncDectTest, RejectsDisconnectedPattern) {
  NgdSet rules = MustParse(
      "ngd r { match (x:n)-[e]->(y:n), (a:n)-[e]->(b:n) then x.v <= y.v }",
      schema_);
  ASSERT_EQ(rules.size(), 1u);
  UpdateBatch batch;
  auto delta = IncDect(g_, rules, batch);
  ASSERT_FALSE(delta.ok());
  EXPECT_NE(delta.status().message().find("disconnected"),
            std::string::npos);
}

TEST_F(IncDectTest, EmptyBatchEmptyDelta) {
  AddValueNode(1);
  UpdateBatch batch;
  auto delta = IncDect(g_, rules_, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST_F(IncDectTest, Example6NatWestScenario) {
  // Paper Example 6: deleting the fake account's status edge removes the
  // φ4 violation; inserting a clean helper account adds none.
  testing_util::G4Nodes nodes;
  auto g = BuildG4(&nodes);
  NgdSet rules = MustParse(testing_util::kPhi4, g.schema);

  VioSet before = Dect(*g.graph, rules);
  ASSERT_EQ(before.size(), 1u);

  LabelId status = *g.schema->labels().Find("status");
  UpdateBatch batch;
  batch.updates.push_back(
      {UpdateKind::kDelete, nodes.fake_account, nodes.fake_status, status});
  ASSERT_TRUE(ApplyUpdateBatch(g.graph.get(), &batch).ok());
  auto delta = IncDect(*g.graph, rules, batch);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(delta->added.empty());
  EXPECT_EQ(delta->removed.size(), 1u);
  // ΔVio- applied to Vio(Σ, G) leaves the graph clean.
  VioSet after = ApplyDelta(before, *delta);
  EXPECT_TRUE(after.empty());
  g.graph->Commit();
  EXPECT_TRUE(Dect(*g.graph, rules).empty());
}

// ---- UpdateIndex duplicate-suppression edge cases -----------------------
//
// Each scenario runs under both backends (live overlay and DeltaView) and
// asserts the exact ΔVio contents — the observable form of exactly-once
// emission — plus, where the scenario is about pivot canonicality, the
// IsCanonicalPivot tie-break directly.

class IncDectEdgeCaseTest : public IncDectTest {
 protected:
  /// Runs IncDect on the live overlay graph, or on a DeltaView over
  /// `base` when given; fails the test on error.
  DeltaVio Delta(const NgdSet& rules, const UpdateBatch& batch,
                 const GraphSnapshot* base = nullptr) {
    IncDectOptions opts;
    opts.base_snapshot = base;
    auto delta = IncDect(g_, rules, batch, opts);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    return delta.ok() ? *std::move(delta) : DeltaVio{};
  }

  /// ΔVio of the applied batch on both backends: live, then a DeltaView
  /// over the overlay's kOld snapshot.
  std::vector<DeltaVio> BothBackends(const NgdSet& rules,
                                     const UpdateBatch& batch) {
    const GraphSnapshot base(g_, GraphView::kOld);
    std::vector<DeltaVio> out;
    out.push_back(Delta(rules, batch));
    out.push_back(Delta(rules, batch, &base));
    return out;
  }
};

TEST_F(IncDectEdgeCaseTest, DeleteThenReinsertSuppressedExactlyOnce) {
  // a->b violates; the batch deletes and reinserts it (net no-op on that
  // edge) while inserting a genuinely new violating edge c->d. The
  // cancelled pair must spawn no pivot at all: ΔVio+ = {(c,d)} exactly,
  // ΔVio- empty — the (a,b) violation neither "removes" nor "re-adds".
  NodeId a = AddValueNode(10), b = AddValueNode(5);
  NodeId c = AddValueNode(9), d = AddValueNode(3);
  ASSERT_TRUE(g_.AddEdge(a, b, e_).ok());
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kDelete, a, b, e_});
  batch.updates.push_back({UpdateKind::kInsert, a, b, e_});  // reinsert
  batch.updates.push_back({UpdateKind::kInsert, c, d, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());

  UpdateIndex index(g_, batch);
  ASSERT_EQ(index.updates().size(), 1u)
      << "delete+reinsert must cancel out of the pivot order";
  EXPECT_FALSE(
      index.IndexOf(UpdateKind::kDelete, EdgeKey{a, b, e_}).has_value());
  EXPECT_FALSE(
      index.IndexOf(UpdateKind::kInsert, EdgeKey{a, b, e_}).has_value());

  for (const DeltaVio& delta : BothBackends(rules_, batch)) {
    EXPECT_EQ(delta.added.size(), 1u);
    EXPECT_TRUE(delta.added.Contains(Violation{0, {c, d}}));
    EXPECT_TRUE(delta.removed.empty());
  }
}

TEST_F(IncDectEdgeCaseTest, UpdateEdgeMatchedByTwoPatternEdgesOfOneRule) {
  // Pattern (x)-[e]->(y), (x)-[e]->(z): both pattern edges carry the same
  // label, so one inserted edge a->b forms a pivot with each of them, and
  // the folded match h = (a, b, b) maps BOTH pattern edges onto that one
  // update edge. The lexicographic (update, pattern-edge) minimum must
  // make exactly one pivot canonical for it.
  NgdSet rules = MustParse(
      "ngd two { match (x:n)-[e]->(y:n), (x)-[e]->(z:n) then y.v < z.v }",
      schema_);
  NodeId a = AddValueNode(1), b = AddValueNode(5), c = AddValueNode(5);
  ASSERT_TRUE(g_.AddEdge(a, c, e_).ok());
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, a, b, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());

  UpdateIndex index(g_, batch);
  std::vector<PivotTask> tasks = EnumeratePivotTasks(g_, rules, index);
  ASSERT_EQ(tasks.size(), 2u) << "one pivot per label-compatible edge";

  // The folded match binds y = z = b; pattern edge 0 wins the tie-break.
  Binding folded{a, b, b};
  EXPECT_TRUE(IsCanonicalPivot(g_, rules[0].pattern(), folded, index,
                               UpdateKind::kInsert, /*update_index=*/0,
                               /*pattern_edge=*/0));
  EXPECT_FALSE(IsCanonicalPivot(g_, rules[0].pattern(), folded, index,
                                UpdateKind::kInsert, /*update_index=*/0,
                                /*pattern_edge=*/1));

  // Violations in G ⊕ ΔG using the inserted edge (y.v < z.v must fail):
  //   (a,b,b) 5<5, (a,b,c) 5<5, (a,c,b) 5<5 — and not the pre-existing
  //   (a,c,c). Each exactly once, on both backends.
  for (const DeltaVio& delta : BothBackends(rules, batch)) {
    EXPECT_EQ(delta.added.size(), 3u);
    EXPECT_TRUE(delta.added.Contains(Violation{0, {a, b, b}}));
    EXPECT_TRUE(delta.added.Contains(Violation{0, {a, b, c}}));
    EXPECT_TRUE(delta.added.Contains(Violation{0, {a, c, b}}));
    EXPECT_TRUE(delta.removed.empty());
  }
}

TEST_F(IncDectEdgeCaseTest, InsertionsOntoBrandNewNodeSeedPivot) {
  // The base snapshot predates the batch, whose insertions attach a node
  // the snapshot has never seen — the pivot seeds at an id beyond
  // base.NumNodes(), reading its label/attrs from the live graph and its
  // adjacency purely from the delta ranges.
  NodeId a = AddValueNode(10);
  GraphSnapshot base(g_, GraphView::kOld);  // before the batch's node
  NodeId fresh = AddValueNode(4);
  ASSERT_GE(fresh, base.NumNodes());
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, a, fresh, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());

  DeltaVio live = Delta(rules_, batch);
  DeltaVio delta = Delta(rules_, batch, &base);
  for (const DeltaVio* d : {&live, &delta}) {
    EXPECT_EQ(d->added.size(), 1u);
    EXPECT_TRUE(d->added.Contains(Violation{0, {a, fresh}}));
    EXPECT_TRUE(d->removed.empty());
  }
}

TEST_F(IncDectTest, RejectsBaseSnapshotLargerThanGraph) {
  // A base snapshot must describe this graph's G. One with more nodes
  // than the graph hands the DeltaView neighbour ids past |V| (here the
  // base's 7 -> b edge, reached when z expands from b), which index past
  // the touched bitmap, so IncDect refuses it before building any view.
  Graph bigger(schema_);
  std::vector<NodeId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(bigger.AddNode(n_));
  ASSERT_TRUE(bigger.AddEdge(ids[7], ids[1], e_).ok());
  const GraphSnapshot base(bigger, GraphView::kOld);

  NodeId a = AddValueNode(10), b = AddValueNode(5);
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, a, b, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  ASSERT_LT(g_.NumNodes(), base.NumNodes());
  NgdSet fan_in = MustParse(
      "ngd p { match (x:n)-[e]->(y:n), (z:n)-[e]->(y) then x.v <= z.v }",
      schema_);
  for (bool prefilter : {true, false}) {
    IncDectOptions opts;
    opts.base_snapshot = &base;
    opts.affected_area_prefilter = prefilter;
    auto delta = IncDect(g_, fan_in, batch, opts);
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument)
        << "prefilter=" << prefilter;
  }
}

TEST_F(IncDectTest, DeltaMatchesBatchRecomputation) {
  // The defining correctness property, on a hand-built case.
  NodeId a = AddValueNode(10), b = AddValueNode(5), c = AddValueNode(20);
  ASSERT_TRUE(g_.AddEdge(a, b, e_).ok());
  ASSERT_TRUE(g_.AddEdge(b, c, e_).ok());
  VioSet before = Dect(g_, rules_, DectOptions{{}, GraphView::kNew});

  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kDelete, a, b, e_});
  batch.updates.push_back({UpdateKind::kInsert, c, b, e_});
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());

  auto delta = IncDect(g_, rules_, batch);
  ASSERT_TRUE(delta.ok());
  VioSet incremental = ApplyDelta(before, *delta);
  VioSet batch_after = Dect(g_, rules_, DectOptions{{}, GraphView::kNew});
  EXPECT_EQ(incremental.Sorted().size(), batch_after.Sorted().size());
  for (const auto& v : batch_after.items()) {
    EXPECT_TRUE(incremental.Contains(v));
  }
}

}  // namespace
}  // namespace ngd
