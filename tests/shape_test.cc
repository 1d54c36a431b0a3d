// The paper's Fig. 4 shapes as gates (`ctest -L shape`).
//
// Each gate reads only counters the engines already return (splits,
// candidate_neighborhood_nodes, work_units) and the ΔVio itself, never a
// clock, so a run is deterministic and a shape that breaks fails the
// build instead of printing "NOT reproduced":
//   - 4(m): a larger latency constant C never buys more work-unit splits,
//     and the ΔVio is the same at every C;
//   - 4(h): the candidate neighbourhood never shrinks as d_Σ grows;
//   - 4(e): incremental detection is localizable — adding components that
//     ΔG does not touch until |G| grows 10× changes neither ΔVio nor
//     PIncDect's N_C and work-unit counts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detect/inc_dect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"
#include "util/rng.h"

namespace ngd {
namespace {

using testing_util::MustParse;

void ExpectSameDelta(const DeltaVio& want, const DeltaVio& got) {
  EXPECT_EQ(want.added.Sorted(), got.added.Sorted());
  EXPECT_EQ(want.removed.Sorted(), got.removed.Sorted());
}

DeltaVio MustIncDect(const Graph& g, const NgdSet& sigma,
                     const UpdateBatch& batch) {
  auto d = IncDect(g, sigma, batch);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return d.ok() ? *std::move(d) : DeltaVio{};
}

PIncDectResult MustPIncDect(const Graph& g, const NgdSet& sigma,
                            const UpdateBatch& batch,
                            const PIncDectOptions& opts) {
  auto r = PIncDect(g, sigma, batch, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *std::move(r) : PIncDectResult{};
}

// ---- Fig. 4(m): vary the latency constant C -------------------------------

TEST(ShapeTest, Fig4mSplitsNeverGrowWithLatency) {
  // Hubs of four sizes, each fed one inserted edge: the pivot binds
  // (x, y) = (src, hub) and expands z over the hub's adjacency, which the
  // cost model splits while C·(k+1) + |adj|/p < |adj|. Larger hubs stay
  // worth splitting at larger C, so the split count falls in steps.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  const LabelId n = schema->InternLabel("n");
  const LabelId e = schema->InternLabel("e");
  const AttrId v = schema->InternAttr("v");
  UpdateBatch batch;
  for (int degree : {20, 60, 200, 600}) {
    const NodeId hub = g.AddNode(n);
    g.SetAttr(hub, v, Value(int64_t{0}));
    for (int i = 0; i < degree; ++i) {
      const NodeId leaf = g.AddNode(n);
      g.SetAttr(leaf, v, Value(int64_t{i}));
      ASSERT_TRUE(g.AddEdge(hub, leaf, e).ok());
    }
    const NodeId src = g.AddNode(n);
    g.SetAttr(src, v, Value(int64_t{degree / 2}));
    batch.updates.push_back({UpdateKind::kInsert, src, hub, e});
  }
  const NgdSet sigma = MustParse(
      "ngd r { match (x:n)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v }",
      schema);
  ASSERT_TRUE(ApplyUpdateBatch(&g, &batch).ok());
  const DeltaVio oracle = MustIncDect(g, sigma, batch);
  ASSERT_GT(oracle.added.size(), 0u);

  const double kLatencies[] = {0, 1, 10, 60, 1e9};
  std::vector<uint64_t> splits;
  for (double c : kLatencies) {
    SCOPED_TRACE(::testing::Message() << "C=" << c);
    PIncDectOptions opts;
    opts.num_processors = 4;
    opts.latency_c = c;
    const PIncDectResult r = MustPIncDect(g, sigma, batch, opts);
    ExpectSameDelta(oracle, r.delta);
    splits.push_back(r.splits);
  }
  for (size_t i = 1; i < splits.size(); ++i) {
    EXPECT_LE(splits[i], splits[i - 1]) << "C=" << kLatencies[i];
  }
  // The end points: a negligible C splits hubs, C = 60 only the largest,
  // a prohibitive C never.
  EXPECT_GT(splits.front(), splits[3]);
  EXPECT_GT(splits[3], 0u);
  EXPECT_EQ(splits.back(), 0u);
}

// ---- Fig. 4(h) and 4(e): sparse components and a small ΔG -----------------

struct Components {
  SchemaPtr schema = Schema::Create();
  Graph graph{schema};
  LabelId n = schema->InternLabel("n");
  LabelId e = schema->InternLabel("e");
  AttrId v = schema->InternAttr("v");
};

// Appends a component of `size` nodes labeled n (v in [0, 100)), each
// with one out-edge to a random node of the same component. Node ids of
// earlier components are unchanged.
void AddComponent(Components* c, size_t size, uint64_t seed) {
  Rng rng(seed);
  const NodeId first = static_cast<NodeId>(c->graph.NumNodes());
  for (size_t i = 0; i < size; ++i) {
    c->graph.SetAttr(c->graph.AddNode(c->n), c->v,
                     Value(rng.UniformInt(0, 99)));
  }
  for (NodeId a = first; a < first + size; ++a) {
    const NodeId b =
        first + static_cast<NodeId>(rng.UniformInt(0, size - 1));
    if (a != b) {
      EXPECT_TRUE(c->graph.AddEdge(a, b, c->e).ok());
    }
  }
}

// Three inserts and three deletes inside the first `size` nodes (the
// first component), built before the batch is applied.
UpdateBatch SmallBatch(const Components& c, size_t size, uint64_t seed) {
  Rng rng(seed);
  UpdateBatch batch;
  auto add = [&](UpdateKind kind, NodeId a, NodeId b) {
    for (const UnitUpdate& u : batch.updates) {
      if (u.src == a && u.dst == b) return;
    }
    batch.updates.push_back({kind, a, b, c.e});
  };
  auto node = [&]() {
    return static_cast<NodeId>(rng.UniformInt(0, size - 1));
  };
  while (batch.size() < 3) {
    const NodeId a = node(), b = node();
    if (a != b && !c.graph.HasEdge(a, b, c.e, GraphView::kOld)) {
      add(UpdateKind::kInsert, a, b);
    }
  }
  while (batch.size() < 6) {
    const NodeId a = node();
    const auto& out = c.graph.OutEdges(a);
    if (!out.empty()) add(UpdateKind::kDelete, a, out[0].other);
  }
  return batch;
}

// Path rules of length 1..d, longest first; d_Σ = d.
std::string PathRules(int d) {
  std::string text;
  for (int len = d; len >= 1; --len) {
    text += "ngd p" + std::to_string(len) + " { match ";
    for (int i = 0; i < len; ++i) {
      if (i > 0) text += ", ";
      text += "(x" + std::to_string(i) + (i == 0 ? ":n" : "") + ")-[e]->(x" +
              std::to_string(i + 1) + ":n)";
    }
    text += " then x0.v <= x" + std::to_string(len) + ".v + 20 }\n";
  }
  return text;
}

TEST(ShapeTest, Fig4hCandidateNeighborhoodGrowsWithDiameter) {
  constexpr size_t kNodes = 8000;
  Components c;
  AddComponent(&c, kNodes, /*seed=*/11);
  UpdateBatch batch = SmallBatch(c, kNodes, /*seed=*/12);
  ASSERT_TRUE(ApplyUpdateBatch(&c.graph, &batch).ok());

  std::vector<size_t> nc;
  for (int d = 1; d <= 4; ++d) {
    SCOPED_TRACE(::testing::Message() << "d_Sigma=" << d);
    const NgdSet sigma = MustParse(PathRules(d), c.schema);
    ASSERT_EQ(sigma.MaxDiameter(), d);
    PIncDectOptions opts;
    opts.num_processors = 4;
    const PIncDectResult r = MustPIncDect(c.graph, sigma, batch, opts);
    ExpectSameDelta(MustIncDect(c.graph, sigma, batch), r.delta);
    // Bounded: the ball is a real scope, not the saturated |V|.
    EXPECT_LT(r.candidate_neighborhood_nodes, c.graph.NumNodes());
    nc.push_back(r.candidate_neighborhood_nodes);
  }
  for (size_t i = 1; i < nc.size(); ++i) {
    EXPECT_LE(nc[i - 1], nc[i]) << "d_Sigma=" << i + 1;
  }
  EXPECT_LT(nc.front(), nc.back());
}

TEST(ShapeTest, Fig4eIncrementalWorkIsLocalizable) {
  constexpr size_t kComponent = 2000;
  const std::string rules = PathRules(3);
  struct Run {
    DeltaVio delta;
    size_t nc = 0;
    uint64_t work_units = 0;
  };
  // |G| = k components; ΔG touches the first one only.
  auto run = [&](int k) {
    Components c;
    for (int i = 0; i < k; ++i) {
      AddComponent(&c, kComponent, /*seed=*/100 + static_cast<uint64_t>(i));
    }
    UpdateBatch batch = SmallBatch(c, kComponent, /*seed=*/7);
    EXPECT_TRUE(ApplyUpdateBatch(&c.graph, &batch).ok());
    const NgdSet sigma = MustParse(rules, c.schema);
    Run out;
    out.delta = MustIncDect(c.graph, sigma, batch);
    PIncDectOptions opts;
    opts.num_processors = 4;
    const PIncDectResult r = MustPIncDect(c.graph, sigma, batch, opts);
    ExpectSameDelta(out.delta, r.delta);
    out.nc = r.candidate_neighborhood_nodes;
    out.work_units = r.work_units;
    EXPECT_LT(out.nc, c.graph.NumNodes());
    return out;
  };
  const Run small = run(1);
  const Run large = run(10);
  EXPECT_FALSE(small.delta.empty());
  ExpectSameDelta(small.delta, large.delta);
  EXPECT_EQ(small.nc, large.nc);
  EXPECT_EQ(small.work_units, large.work_units);
}

}  // namespace
}  // namespace ngd
