// Differential harness for incremental detection (paper §5.2 correctness
// criterion, made adversarial):
//
//   Vio(Σ, G) ⊕ ΔVio(Σ, G, ΔG) == Dect(Σ, G ⊕ ΔG)
//
// over thousands of randomized (graph, Σ, ΔG) workloads, for all four
// engine combinations: {live overlay, DeltaView} × {IncDect, PIncDect}.
// The live sequential engine with the affected-area prefilter off is the
// unchanged pre-DeltaView code path and doubles as the oracle: every
// other engine's ΔVio must match it exactly (added and removed sets),
// not just produce the same net violation set.
//
// Each seed derives its workload deterministically — graph size, |ΔG|/|E|
// (5%–40%), insert/delete ratio γ (all-delete .. all-insert), new-node
// probability, processor count, base-snapshot reuse — so a failure
// reproduces from the printed seed alone:
//
//   NGD_DIFF_SEED=<seed> ctest -R inc_dect_differential
//
// ManyLabelHubSweepAgrees runs the same comparison on a pinned hub graph
// with hundreds of edge labels, a shape the random generator never makes.
//
// Case count: 1000 per engine combination by default (the acceptance
// floor); NGD_DIFF_CASES overrides (sanitizer CI uses a smaller sweep,
// release CI and local runs the full one).

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

size_t CaseCount() {
  const char* env = std::getenv("NGD_DIFF_CASES");
  if (env != nullptr) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 1000;
}

std::string Describe(const VioSet& set, const NgdSet& sigma) {
  std::ostringstream os;
  size_t shown = 0;
  for (const Violation& v : set.Sorted()) {
    if (++shown > 8) {
      os << "  ... (" << set.size() << " total)\n";
      break;
    }
    os << "  " << sigma[v.ngd_index].name() << " h=(";
    for (size_t i = 0; i < v.nodes.size(); ++i) {
      os << (i > 0 ? "," : "") << v.nodes[i];
    }
    os << ")\n";
  }
  return os.str();
}

/// Set equality with a readable diff; `repro` names the failing seed.
void ExpectSameVioSet(const VioSet& want, const VioSet& got,
                      const NgdSet& sigma, const std::string& what,
                      const std::string& repro) {
  VioSet missing, spurious;
  for (const Violation& v : want.items()) {
    if (!got.Contains(v)) missing.Add(v);
  }
  for (const Violation& v : got.items()) {
    if (!want.Contains(v)) spurious.Add(v);
  }
  EXPECT_TRUE(missing.empty() && spurious.empty())
      << what << " mismatch (" << repro << ")\nmissing:\n"
      << Describe(missing, sigma) << "spurious:\n"
      << Describe(spurious, sigma);
}

struct CaseOutcome {
  size_t effective_updates = 0;
  bool delta_nonempty = false;
};

/// Every other engine combination against the oracle's ΔVio on one
/// applied batch: live with the prefilter on, DeltaView IncDect, and
/// PIncDect on both backends. `base` (optional) is a pre-batch snapshot.
void ExpectEnginesMatchOracle(const Graph& g, const NgdSet& sigma,
                              const UpdateBatch& batch,
                              const GraphSnapshot* base, int processors,
                              const DeltaVio& oracle,
                              const std::string& repro) {
  // Live sequential with the prefilter on: same ΔVio, less work.
  {
    IncDectOptions o;
    o.snapshot_mode = SnapshotMode::kNever;
    auto d = IncDect(g, sigma, batch, o);
    EXPECT_TRUE(d.ok()) << repro;
    if (!d.ok()) return;
    ExpectSameVioSet(oracle.added, d->added, sigma,
                     "live+prefilter ΔVio+", repro);
    ExpectSameVioSet(oracle.removed, d->removed, sigma,
                     "live+prefilter ΔVio-", repro);
  }

  // DeltaView sequential.
  {
    IncDectOptions o;
    o.snapshot_mode = SnapshotMode::kAlways;
    o.base_snapshot = base;
    auto d = IncDect(g, sigma, batch, o);
    EXPECT_TRUE(d.ok()) << repro;
    if (!d.ok()) return;
    ExpectSameVioSet(oracle.added, d->added, sigma, "delta-view IncDect ΔVio+",
                     repro);
    ExpectSameVioSet(oracle.removed, d->removed, sigma,
                     "delta-view IncDect ΔVio-", repro);
  }

  // Parallel engines, live and DeltaView backends.
  for (const bool use_delta : {false, true}) {
    PIncDectOptions o;
    o.num_processors = processors;
    o.balance_interval_ms = 1;
    o.snapshot_mode =
        use_delta ? SnapshotMode::kAlways : SnapshotMode::kNever;
    o.base_snapshot = use_delta ? base : nullptr;
    auto d = PIncDect(g, sigma, batch, o);
    EXPECT_TRUE(d.ok()) << repro;
    if (!d.ok()) return;
    const char* what_add =
        use_delta ? "delta-view PIncDect ΔVio+" : "live PIncDect ΔVio+";
    const char* what_rem =
        use_delta ? "delta-view PIncDect ΔVio-" : "live PIncDect ΔVio-";
    ExpectSameVioSet(oracle.added, d->delta.added, sigma, what_add, repro);
    ExpectSameVioSet(oracle.removed, d->delta.removed, sigma, what_rem,
                     repro);
  }
}

/// One randomized differential case; everything derives from `seed`. The
/// (graph, Σ) pair comes from the shared generator in test_util.h — the
/// same workload space the Σ-optimizer differential harness sweeps.
CaseOutcome RunCase(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  testing_util::RandomWorkload w = testing_util::MakeRandomWorkload(seed, &rng);
  const double fractions[] = {0.05, 0.1, 0.2, 0.3, 0.4};
  const double gammas[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  const double fraction = fractions[rng.UniformInt(0, 4)];
  const double insert_fraction = gammas[rng.UniformInt(0, 4)];
  const double new_node_prob = rng.Bernoulli(0.3) ? 0.2 : 0.0;
  const int processors = static_cast<int>(rng.UniformInt(2, 4));
  const bool pass_base_snapshot = rng.Bernoulli(0.5);

  std::ostringstream repro_os;
  repro_os << "repro: NGD_DIFF_SEED=" << seed << " (nodes=" << w.nodes
           << " edges=" << w.edges << " dG=" << fraction
           << " gamma=" << insert_fraction << " p=" << processors << ")";
  const std::string repro = repro_os.str();

  std::unique_ptr<Graph>& g = w.graph;
  NgdSet& sigma = w.sigma;
  if (sigma.empty() || !ValidateForIncremental(sigma).ok()) return {};

  const VioSet before = Dect(*g, sigma);

  UpdateGenOptions up;
  up.fraction = fraction;
  up.insert_fraction = insert_fraction;
  up.new_node_prob = new_node_prob;
  up.seed = seed + 2;
  UpdateBatch batch = GenerateUpdateBatch(g.get(), up);

  // A base snapshot taken before the batch is applied — the production
  // shape (one snapshot per commit epoch, reused across batches). The
  // other half of the cases make the engines build their own from the
  // overlay's kOld view, covering both DeltaView construction paths.
  std::optional<GraphSnapshot> base;
  if (pass_base_snapshot) base.emplace(*g, GraphView::kOld);

  EXPECT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok()) << repro;
  const VioSet after = Dect(*g, sigma);

  // Oracle: the pre-DeltaView sequential engine, byte-for-byte.
  IncDectOptions oracle_opts;
  oracle_opts.snapshot_mode = SnapshotMode::kNever;
  oracle_opts.affected_area_prefilter = false;
  auto oracle = IncDect(*g, sigma, batch, oracle_opts);
  EXPECT_TRUE(oracle.ok()) << repro << ": " << oracle.status().ToString();
  if (!oracle.ok()) return {};
  ExpectSameVioSet(after, ApplyDelta(before, *oracle), sigma,
                   "live IncDect vs batch Dect", repro);

  ExpectEnginesMatchOracle(*g, sigma, batch,
                           base.has_value() ? &*base : nullptr, processors,
                           *oracle, repro);

  CaseOutcome outcome;
  outcome.effective_updates = batch.size();
  outcome.delta_nonempty = !oracle->empty();
  return outcome;
}

TEST(IncDectDifferentialTest, AllEngineCombinationsAgreeWithBatchDect) {
  const char* pinned = std::getenv("NGD_DIFF_SEED");
  if (pinned != nullptr) {
    RunCase(static_cast<uint64_t>(std::strtoull(pinned, nullptr, 10)));
    return;
  }
  const size_t cases = CaseCount();
  size_t with_updates = 0, with_delta = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    CaseOutcome o = RunCase(seed);
    if (HasFailure()) {
      FAIL() << "first failing case: NGD_DIFF_SEED=" << seed;
    }
    with_updates += o.effective_updates > 0 ? 1 : 0;
    with_delta += o.delta_nonempty ? 1 : 0;
  }
  // The sweep must actually exercise the machinery: most cases carry
  // effective updates and a healthy share produce a non-empty ΔVio.
  EXPECT_GT(with_updates, cases * 7 / 10);
  EXPECT_GT(with_delta, cases / 10);
}

// The many-label hub shape: 120 hubs each fan out 800 edges over 400
// edge labels (about two entries per label per hub) to 1500 spokes, and
// spokes feed hubs over a `feeds` label. Rules are all-wildcard 2-hop
// paths (x)-[feeds]->(y)-[e_r]->(z), so every feeds-edge pivot binds y to
// a hub: the live engines scan the hub's whole adjacency while the
// DeltaView binary-searches e_r's short range. 2% of spokes violate the
// rules' consequence, so ΔVio is not empty. Swept over |ΔG|, churning
// feeds edges only (half deletions of existing ones, half insertions).
TEST(IncDectDifferentialTest, ManyLabelHubSweepAgrees) {
  constexpr int kHubs = 120, kSpokes = 1500, kFanOut = 800, kLabels = 400;
  constexpr int kFeedsPerHub = 8, kRules = 24;
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  const LabelId n = schema->InternLabel("n");
  const LabelId feeds = schema->InternLabel("feeds");
  const AttrId val = schema->InternAttr("val");
  std::vector<LabelId> labels;
  for (int l = 0; l < kLabels; ++l) {
    labels.push_back(schema->InternLabel("e" + std::to_string(l)));
  }
  std::vector<NodeId> hubs, spokes;
  for (int i = 0; i < kHubs; ++i) {
    hubs.push_back(g.AddNode(n));
    g.SetAttr(hubs.back(), val, Value(int64_t{1}));
  }
  for (int i = 0; i < kSpokes; ++i) {
    spokes.push_back(g.AddNode(n));
    g.SetAttr(spokes.back(), val, Value(int64_t{i % 50 == 0 ? -1 : 1}));
  }
  Rng rng(42);
  for (NodeId hub : hubs) {
    for (int k = 0; k < kFanOut; ++k) {
      // Duplicate (src, dst, label) picks are rejected; fine to skip.
      (void)g.AddEdge(hub, rng.PickFrom(spokes), labels[k % kLabels]);
    }
    for (int k = 0; k < kFeedsPerHub; ++k) {
      (void)g.AddEdge(rng.PickFrom(spokes), hub, feeds);
    }
  }
  std::string rules;
  for (int r = 0; r < kRules; ++r) {
    rules += "ngd hub" + std::to_string(r) +
             " { match (x)-[feeds]->(y), (y)-[e" +
             std::to_string((r * 7) % kLabels) + "]->(z) then z.val >= 0 }\n";
  }
  const NgdSet sigma = testing_util::MustParse(rules, schema);
  ASSERT_EQ(sigma.size(), static_cast<size_t>(kRules));

  for (double fraction : {0.05, 0.15, 0.25, 0.35}) {
    const std::string repro = "hub sweep dG=" + std::to_string(fraction);
    const size_t want = static_cast<size_t>(
        fraction * static_cast<double>(g.NumEdges(GraphView::kNew)) / 2.0);
    std::vector<EdgeKey> feed_edges;
    for (NodeId s : spokes) {
      for (const AdjEntry& e : g.OutEdges(s)) {
        if (e.label == feeds) feed_edges.push_back(EdgeKey{s, e.other, feeds});
      }
    }
    UpdateBatch batch;
    for (size_t i = 0; i < want && i < feed_edges.size(); ++i) {
      std::swap(feed_edges[i],
                feed_edges[rng.UniformInt(i, feed_edges.size() - 1)]);
      batch.updates.push_back({UpdateKind::kDelete, feed_edges[i].src,
                               feed_edges[i].dst, feeds});
    }
    for (size_t i = 0; i < want; ++i) {
      const NodeId s = rng.PickFrom(spokes), h = rng.PickFrom(hubs);
      if (!g.HasEdge(s, h, feeds, GraphView::kNew)) {
        batch.updates.push_back({UpdateKind::kInsert, s, h, feeds});
      }
    }
    ASSERT_TRUE(ApplyUpdateBatch(&g, &batch).ok()) << repro;
    IncDectOptions oracle_opts;
    oracle_opts.snapshot_mode = SnapshotMode::kNever;
    oracle_opts.affected_area_prefilter = false;
    auto oracle = IncDect(g, sigma, batch, oracle_opts);
    ASSERT_TRUE(oracle.ok()) << repro;
    EXPECT_FALSE(oracle->empty()) << repro;
    const GraphSnapshot base(g, GraphView::kOld);
    ExpectEnginesMatchOracle(g, sigma, batch, &base, 4, *oracle, repro);
    g.Rollback();
  }
}

}  // namespace
}  // namespace ngd
