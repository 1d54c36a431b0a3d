#include <gtest/gtest.h>

#include <array>
#include <random>

#include "core/parser.h"
#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

struct Workload {
  SchemaPtr schema;
  std::unique_ptr<Graph> graph;
  NgdSet sigma;
  UpdateBatch batch;
  DeltaVio expected;
};

Workload MakeWorkload(uint64_t seed, size_t nodes = 500, size_t edges = 1300,
                      double fraction = 0.12) {
  Workload w;
  w.schema = Schema::Create();
  w.graph = GenerateGraph(SyntheticConfig(nodes, edges, seed), w.schema);
  NgdGenOptions gen;
  gen.count = 10;
  gen.max_diameter = 3;
  gen.seed = seed + 1;
  gen.violation_rate = 0.25;
  w.sigma = GenerateNgdSet(*w.graph, gen);
  UpdateGenOptions up;
  up.fraction = fraction;
  up.seed = seed + 2;
  w.batch = GenerateUpdateBatch(w.graph.get(), up);
  EXPECT_TRUE(ApplyUpdateBatch(w.graph.get(), &w.batch).ok());
  auto delta = IncDect(*w.graph, w.sigma, w.batch);
  EXPECT_TRUE(delta.ok());
  w.expected = std::move(delta).value();
  return w;
}

void ExpectSameDelta(const DeltaVio& expected, const DeltaVio& actual) {
  EXPECT_EQ(expected.added.size(), actual.added.size());
  EXPECT_EQ(expected.removed.size(), actual.removed.size());
  for (const auto& v : expected.added.items()) {
    EXPECT_TRUE(actual.added.Contains(v));
  }
  for (const auto& v : expected.removed.items()) {
    EXPECT_TRUE(actual.removed.Contains(v));
  }
}

class PIncDectProcessorsTest : public ::testing::TestWithParam<int> {};

TEST_P(PIncDectProcessorsTest, MatchesSequentialIncDect) {
  Workload w = MakeWorkload(31);
  PIncDectOptions opts;
  opts.num_processors = GetParam();
  opts.balance_interval_ms = 5;
  auto result = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameDelta(w.expected, result->delta);
  EXPECT_GT(result->work_units, 0u);
  EXPECT_GT(result->candidate_neighborhood_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Processors, PIncDectProcessorsTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(PIncDectTest, DeterministicDeltaAcrossRuns) {
  Workload w = MakeWorkload(43);
  PIncDectOptions opts;
  opts.num_processors = 4;
  opts.balance_interval_ms = 1;
  auto r1 = PIncDect(*w.graph, w.sigma, w.batch, opts);
  auto r2 = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ExpectSameDelta(r1->delta, r2->delta);
}

TEST(PIncDectTest, ReplicationMetricsScaleWithProcessors) {
  Workload w = MakeWorkload(47);
  PIncDectOptions p2;
  p2.num_processors = 2;
  PIncDectOptions p8;
  p8.num_processors = 8;
  auto r2 = PIncDect(*w.graph, w.sigma, w.batch, p2);
  auto r8 = PIncDect(*w.graph, w.sigma, w.batch, p8);
  ASSERT_TRUE(r2.ok() && r8.ok());
  EXPECT_EQ(r2->candidate_neighborhood_nodes,
            r8->candidate_neighborhood_nodes);
  EXPECT_GT(r8->replicated_nodes, r2->replicated_nodes);
}

// Work-unit scoping (each unit reads only its rule's affected-area
// ball, or everything once that ball saturates its budget), checked in
// both regimes against the unscoped live-graph IncDect oracle. Σ mixes
// pattern diameters 1, 2 and 3 (so every rule's scope differs from the
// d_Σ ball) and a triangle: diameter 1, so the node closing the cycle
// must be found inside the tightest scope in Σ.
constexpr const char* kScopeRules = R"(
  ngd edge { match (x:n)-[e]->(y:n) then x.v <= y.v + 20 }
  ngd path2 { match (x:n)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v + 30 }
  ngd path3 {
    match (a:n)-[e]->(b:n), (b)-[e]->(c:n), (c)-[e]->(d:n)
    then a.v <= d.v + 30
  }
  ngd triangle {
    match (x:n)-[e]->(y:n), (y)-[e]->(z:n), (z)-[e]->(x)
    then x.v + y.v >= z.v
  }
)";

struct ScopeCase {
  SchemaPtr schema;
  std::unique_ptr<Graph> graph;
  NgdSet sigma;
  UpdateBatch batch;
};

// `num_nodes` nodes labeled n with v in [0, 100), one random out-edge
// each, and `triangles` planted triangles; with `hub`, node 0
// additionally points at the first 400 other nodes. The batch deletes
// one edge of each of the first `batch_triangles` planted triangles,
// closes as many new triangles over existing 2-paths, touches the hub
// (if any), and inserts/deletes a few random edges.
ScopeCase MakeScopeCase(uint64_t seed, size_t num_nodes, int triangles,
                        int batch_triangles, bool hub) {
  ScopeCase c;
  c.schema = Schema::Create();
  c.graph = std::make_unique<Graph>(c.schema);
  Graph& g = *c.graph;
  const LabelId n = c.schema->InternLabel("n");
  const LabelId e = c.schema->InternLabel("e");
  const AttrId v = c.schema->InternAttr("v");
  std::mt19937_64 rng(seed);
  auto node = [&]() { return static_cast<NodeId>(rng() % num_nodes); };
  for (size_t i = 0; i < num_nodes; ++i) {
    g.SetAttr(g.AddNode(n), v, Value(static_cast<int64_t>(rng() % 100)));
  }
  // The batch is built before it is applied: every edge is a base edge.
  auto has_edge = [&](NodeId a, NodeId b) {
    return g.HasEdge(a, b, e, GraphView::kOld);
  };
  auto successors = [&](NodeId a) {
    std::vector<NodeId> out;
    for (const AdjEntry& adj : g.OutEdges(a)) out.push_back(adj.other);
    return out;
  };
  auto add = [&](NodeId a, NodeId b) {
    if (a != b && !has_edge(a, b)) {
      EXPECT_TRUE(g.AddEdge(a, b, e).ok());
    }
  };
  if (hub) {
    for (NodeId leaf = 1; leaf <= 400; ++leaf) add(0, leaf);
  }
  for (NodeId a = 0; a < num_nodes; ++a) add(a, node());
  std::vector<std::array<NodeId, 3>> planted;
  for (int t = 0; t < triangles; ++t) {
    const std::array<NodeId, 3> tri{node(), node(), node()};
    if (tri[0] == tri[1] || tri[1] == tri[2] || tri[0] == tri[2]) continue;
    add(tri[0], tri[1]);
    add(tri[1], tri[2]);
    add(tri[2], tri[0]);
    planted.push_back(tri);
  }
  auto parsed = ParseNgds(kScopeRules, c.schema);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (parsed.ok()) c.sigma = *std::move(parsed);

  std::vector<UnitUpdate>& up = c.batch.updates;
  auto has_update = [&](NodeId a, NodeId b) {
    for (const UnitUpdate& u : up) {
      if (u.src == a && u.dst == b) return true;
    }
    return false;
  };
  auto insert = [&](NodeId a, NodeId b) {
    if (a != b && !has_edge(a, b) && !has_update(a, b)) {
      up.push_back({UpdateKind::kInsert, a, b, e});
    }
  };
  auto remove = [&](NodeId a, NodeId b) {
    if (has_edge(a, b) && !has_update(a, b)) {
      up.push_back({UpdateKind::kDelete, a, b, e});
    }
  };
  for (int t = 0; t < batch_triangles && t < static_cast<int>(planted.size());
       ++t) {
    remove(planted[t][2], planted[t][0]);
  }
  // Close triangles x -> y -> z over existing 2-paths by inserting z -> x.
  int closed = 0;
  for (NodeId x = 1; x < num_nodes && closed < batch_triangles; ++x) {
    bool done = false;
    for (NodeId y : successors(x)) {
      for (NodeId z : successors(y)) {
        if (!done && z != x && !has_edge(z, x)) {
          insert(z, x);
          done = true;
        }
      }
    }
    if (done) ++closed;
    x += static_cast<NodeId>(rng() % 200);
  }
  if (hub) {
    insert(node(), 0);
    remove(0, 1);
  }
  for (int k = 0; k < 3; ++k) {
    insert(node(), node());
    const NodeId a = node();
    for (NodeId b : successors(a)) remove(a, b);
  }
  EXPECT_TRUE(ApplyUpdateBatch(&g, &c.batch).ok());
  return c;
}

// PIncDect == unscoped live IncDect for p ∈ {1, 2, 4} × prefilter on/off
// × live/DeltaView backend; returns the prefiltered runs' |N_C|.
size_t ExpectScopedRunsMatchOracle(const ScopeCase& c) {
  IncDectOptions oracle_opts;
  oracle_opts.affected_area_prefilter = false;
  auto oracle = IncDect(*c.graph, c.sigma, c.batch, oracle_opts);
  EXPECT_TRUE(oracle.ok());
  if (!oracle.ok()) return 0;
  // Every rule contributes to the oracle delta, so a scope that drops any
  // rule's matches shows up as a mismatch.
  std::vector<int> per_rule(c.sigma.size(), 0);
  for (const Violation& v : oracle->added.items()) ++per_rule[v.ngd_index];
  for (const Violation& v : oracle->removed.items()) ++per_rule[v.ngd_index];
  for (size_t r = 0; r < c.sigma.size(); ++r) {
    EXPECT_GT(per_rule[r], 0) << "rule " << c.sigma[r].name();
  }
  EXPECT_GT(oracle->added.size(), 0u);
  EXPECT_GT(oracle->removed.size(), 0u);

  const GraphSnapshot base(*c.graph, GraphView::kOld);
  size_t nc = 0;
  for (int p : {1, 2, 4}) {
    for (bool prefilter : {true, false}) {
      for (const bool delta_view : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "p=" << p << " prefilter=" << prefilter
                     << " delta_view=" << delta_view);
        PIncDectOptions opts;
        opts.num_processors = p;
        opts.affected_area_prefilter = prefilter;
        opts.base_snapshot = delta_view ? &base : nullptr;
        opts.balance_interval_ms = 1;
        auto result = PIncDect(*c.graph, c.sigma, c.batch, opts);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) continue;
        ExpectSameDelta(*oracle, result->delta);
        if (prefilter) {
          nc = result->candidate_neighborhood_nodes;
        } else {
          EXPECT_EQ(result->candidate_neighborhood_nodes,
                    c.graph->NumNodes());
        }
      }
    }
  }
  return nc;
}

TEST(PIncDectScopeTest, SaturatedHubBallRunsUnscoped) {
  // The hub's 1-hop ball alone exceeds max(256, |V|/8) = 256 nodes, so
  // every rule's ball saturates and no unit is filtered.
  ScopeCase c = MakeScopeCase(/*seed=*/5, /*num_nodes=*/600,
                              /*triangles=*/40, /*batch_triangles=*/3,
                              /*hub=*/true);
  ASSERT_GT(c.graph->NumNodes(), 256u);
  EXPECT_EQ(ExpectScopedRunsMatchOracle(c), c.graph->NumNodes());

  // The diameter-1 ball saturates, so the diameter-2 and -3 balls (which
  // contain it) report unscoped too, whatever order Σ lists them in.
  UpdateIndex index(*c.graph, c.batch);
  const NgdSet reversed = testing_util::MustParse(R"(
    ngd path3 {
      match (a:n)-[e]->(b:n), (b)-[e]->(c:n), (c)-[e]->(d:n)
      then a.v <= d.v + 30
    }
    ngd path2 { match (x:n)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v + 30 }
    ngd edge { match (x:n)-[e]->(y:n) then x.v <= y.v + 20 }
  )", c.schema);
  const NgdSet* sigmas[] = {&c.sigma, &reversed};
  for (const NgdSet* sigma : sigmas) {
    const AffectedArea area(*c.graph, *sigma, index);
    for (size_t r = 0; r < sigma->size(); ++r) {
      EXPECT_EQ(area.ScopeOf(static_cast<int>(r)), nullptr)
          << (*sigma)[r].name();
      EXPECT_TRUE(area.RuleCanMatch(static_cast<int>(r)));
    }
  }
}

TEST(PIncDectScopeTest, BoundedBallsScopeEveryRule) {
  // A small batch on a sparse graph: every rule's ball stays within its
  // budget, so units are filtered by balls of three different sizes.
  ScopeCase c = MakeScopeCase(/*seed=*/9, /*num_nodes=*/8000,
                              /*triangles=*/800, /*batch_triangles=*/6,
                              /*hub=*/false);
  const size_t nc = ExpectScopedRunsMatchOracle(c);
  EXPECT_GT(nc, 0u);
  EXPECT_LT(nc, c.graph->NumNodes());

  // Σ = edge (d 1), path2 (d 2), path3 (d 3), triangle (d 1): each rule
  // gets its own diameter's ball, and the balls nest.
  const AffectedArea area(*c.graph, c.sigma, UpdateIndex(*c.graph, c.batch));
  std::vector<const NodeSet*> scope;
  for (int r = 0; r < 4; ++r) {
    scope.push_back(area.ScopeOf(r));
    ASSERT_NE(scope.back(), nullptr) << c.sigma[r].name();
  }
  EXPECT_EQ(scope[0], scope[3]);
  EXPECT_LT(scope[0]->size(), scope[1]->size());
  EXPECT_LT(scope[1]->size(), scope[2]->size());
  EXPECT_EQ(scope[2]->size(), nc);
}

TEST(PIncDectTest, RejectsEdgelessPattern) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  g.AddNode("n");
  auto parsed = ParseNgds("ngd r { match (x:n) then x.v >= 0 }", schema);
  ASSERT_TRUE(parsed.ok());
  UpdateBatch batch;
  PIncDectOptions opts;
  auto result = PIncDect(g, *parsed, batch, opts);
  EXPECT_FALSE(result.ok());
}

TEST(PIncDectTest, RejectsBaseSnapshotLargerThanGraph) {
  // As IncDect: a base with more nodes than the graph hands the shared
  // DeltaView neighbour ids past |V| (the base's 7 -> b edge, reached
  // when z expands from b), so PIncDect refuses it up front.
  SchemaPtr schema = Schema::Create();
  const LabelId n = schema->InternLabel("n");
  const LabelId e = schema->InternLabel("e");
  Graph bigger(schema);
  for (int i = 0; i < 8; ++i) bigger.AddNode(n);
  ASSERT_TRUE(bigger.AddEdge(7, 1, e).ok());
  const GraphSnapshot base(bigger, GraphView::kOld);
  Graph g(schema);
  const NodeId a = g.AddNode(n), b = g.AddNode(n);
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, a, b, e});
  ASSERT_TRUE(ApplyUpdateBatch(&g, &batch).ok());
  const NgdSet fan_in = testing_util::MustParse(
      "ngd p { match (x:n)-[e]->(y:n), (z:n)-[e]->(y) then x.v <= z.v }",
      schema);
  for (int p : {1, 4}) {
    for (bool prefilter : {true, false}) {
      PIncDectOptions opts;
      opts.num_processors = p;
      opts.base_snapshot = &base;
      opts.affected_area_prefilter = prefilter;
      auto result = PIncDect(g, fan_in, batch, opts);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << "p=" << p << " prefilter=" << prefilter;
    }
  }
}

TEST(PIncDectTest, EmptyBatchTerminatesImmediately) {
  Workload w = MakeWorkload(53, 100, 200, 0.0);
  PIncDectOptions opts;
  opts.num_processors = 4;
  auto result = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->delta.empty());
}

}  // namespace
}  // namespace ngd
