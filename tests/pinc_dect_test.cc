#include <gtest/gtest.h>

#include <array>
#include <random>

#include "core/parser.h"
#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "parallel/pinc_dect.h"

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

struct VariantCase {
  const char* name;
  bool split;
  bool balance;
};

class PIncDectVariantTest : public ::testing::TestWithParam<VariantCase> {};

TEST_P(PIncDectVariantTest, AblationVariantsAreAllCorrect) {
  Workload w = MakeWorkload(37);
  PIncDectOptions opts;
  opts.num_processors = 4;
  opts.enable_split = GetParam().split;
  opts.enable_balance = GetParam().balance;
  opts.balance_interval_ms = 5;
  auto result = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(result.ok());
  ExpectSameDelta(w.expected, result->delta);
  if (!GetParam().split) {
    EXPECT_EQ(result->splits, 0u);
  }
  if (!GetParam().balance) {
    EXPECT_EQ(result->balance_moves, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, PIncDectVariantTest,
    ::testing::Values(VariantCase{"full", true, true},
                      VariantCase{"ns_no_split", false, true},
                      VariantCase{"nb_no_balance", true, false},
                      VariantCase{"NO_neither", false, false}),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      return info.param.name;
    });

TEST(PIncDectTest, SplittingTriggersOnHubs) {
  // A hub with a huge adjacency list must trigger the hybrid splitter
  // when C is small.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  LabelId n = schema->InternLabel("n");
  LabelId e = schema->InternLabel("e");
  AttrId v = schema->InternAttr("v");
  NodeId hub = g.AddNode(n);
  g.SetAttr(hub, v, Value(int64_t{0}));
  for (int i = 0; i < 600; ++i) {
    NodeId leaf = g.AddNode(n);
    g.SetAttr(leaf, v, Value(int64_t{i}));
    ASSERT_TRUE(g.AddEdge(hub, leaf, e).ok());
  }
  NodeId src = g.AddNode(n);
  g.SetAttr(src, v, Value(int64_t{50}));

  auto parsed = ParseNgds(
      "ngd r { match (x:n)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v }",
      schema);
  ASSERT_TRUE(parsed.ok());

  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, src, hub, e});
  ASSERT_TRUE(ApplyUpdateBatch(&g, &batch).ok());

  auto sequential = IncDect(g, *parsed, batch);
  ASSERT_TRUE(sequential.ok());

  PIncDectOptions opts;
  opts.num_processors = 4;
  opts.latency_c = 1.0;  // aggressive splitting
  opts.min_split_adjacency = 8;
  auto result = PIncDect(g, *parsed, batch, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->splits, 0u);
  ExpectSameDelta(*sequential, result->delta);
}

TEST(PIncDectTest, LargeLatencyDisablesSplitting) {
  Workload w = MakeWorkload(41);
  PIncDectOptions opts;
  opts.num_processors = 4;
  opts.latency_c = 1e9;
  auto result = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->splits, 0u);
  ExpectSameDelta(w.expected, result->delta);
}

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
  oracle_opts.snapshot_mode = SnapshotMode::kNever;
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

  size_t nc = 0;
  for (int p : {1, 2, 4}) {
    for (bool prefilter : {true, false}) {
      for (SnapshotMode mode : {SnapshotMode::kNever, SnapshotMode::kAlways}) {
        SCOPED_TRACE(::testing::Message()
                     << "p=" << p << " prefilter=" << prefilter
                     << " delta_view=" << (mode == SnapshotMode::kAlways));
        PIncDectOptions opts;
        opts.num_processors = p;
        opts.affected_area_prefilter = prefilter;
        opts.snapshot_mode = mode;
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
