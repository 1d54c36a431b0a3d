#include "adapter.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "core/parser.h"
#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "detect/vio_stream.h"
#include "discovery/ngd_generator.h"
#include "graph/delta_view.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "graph/snapshot_io.h"
#include "graph/update_log.h"
#include "graph/updates.h"
#include "match/homomorphism.h"
#include "parallel/cluster.h"
#include "parallel/partitioner.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "reason/sigma_optimizer.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace perfbench {

Error Text(const ngd::Status& s) { return s.ok() ? Error() : s.ToString(); }

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void Digest(const ngd::Violation& v, VioDigest* d) {
  uint64_t h = Mix(static_cast<uint64_t>(v.ngd_index));
  for (ngd::NodeId n : v.nodes) h = Mix(h ^ n);
  ++d->count;
  d->sum += h;
  d->stream = Mix(d->stream ^ h);
}

Error WriteInputs(const ngd::Graph& g, const std::string& snap_path,
                  const std::string& tsv_path, GraphShape* shape) {
  ngd::GraphSnapshot snap(g, ngd::GraphView::kNew);
  Error e = Text(ngd::SaveSnapshotFile(snap, snap_path));
  if (e.empty()) e = Text(ngd::SaveGraphFile(g, tsv_path));
  shape->nodes = g.NumNodes();
  shape->edges = g.NumEdges(ngd::GraphView::kNew);
  return e;
}

ngd::StatusOr<std::string> ReadText(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return ngd::Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// ---- Input generation ----------------------------------------------------

Error GenerateSynthetic(const SyntheticSpec& spec, const std::string& snap_path,
                        const std::string& tsv_path, GraphShape* shape) {
  ngd::GraphGenConfig config =
      ngd::SyntheticConfig(spec.nodes, spec.edges, spec.seed);
  config.pref_attach = spec.pref_attach;
  config.num_node_labels = spec.node_labels;
  config.num_edge_labels = spec.edge_labels;
  std::unique_ptr<ngd::Graph> g =
      ngd::GenerateGraph(config, ngd::Schema::Create());
  return WriteInputs(*g, snap_path, tsv_path, shape);
}

Error GenerateFlood(const FloodSpec& spec, const std::string& snap_path,
                    const std::string& tsv_path, GraphShape* shape) {
  ngd::SchemaPtr schema = ngd::Schema::Create();
  ngd::Graph g(schema);
  const ngd::LabelId hub = schema->InternLabel("hub");
  const ngd::LabelId reading = schema->InternLabel("reading");
  const ngd::LabelId observes = schema->InternLabel("observes");
  const ngd::AttrId val = schema->InternAttr("val");
  ngd::Rng rng(spec.seed);
  for (int h = 0; h < spec.hubs; ++h) {
    const ngd::NodeId hv = g.AddNode(hub);
    for (int i = 0; i < spec.readings; ++i) {
      const ngd::NodeId rv = g.AddNode(reading);
      g.SetAttr(rv, val, ngd::Value(rng.UniformInt(0, 1000000)));
      Error e = Text(g.AddEdge(hv, rv, observes));
      if (!e.empty()) return e;
    }
  }
  return WriteInputs(g, snap_path, tsv_path, shape);
}

Error InflateCatalog(const std::string& base_path, const InflateSpec& spec,
                     const std::string& out_path, size_t* rules) {
  auto text = ReadText(base_path);
  if (!text.ok()) return Text(text.status());
  ngd::SchemaPtr schema = ngd::Schema::Create();
  auto base = ngd::ParseNgds(*text, schema);
  if (!base.ok()) return Text(base.status());
  ngd::InflateOptions opts;
  opts.variants_per_rule = spec.variants_per_rule;
  opts.duplicate_fraction = spec.duplicate_fraction;
  opts.seed = spec.seed;
  const ngd::NgdSet inflated = ngd::InflateWithImpliedVariants(*base, opts);
  std::string out;
  for (const ngd::Ngd& r : inflated.ngds()) {
    out += r.ToString(schema->labels(), schema->attrs());
    out += "\n";
  }
  {
    std::ofstream f(out_path);
    f << out;
    if (!f.good()) return "cannot write " + out_path;
  }
  auto back = ngd::ParseNgds(out, schema);
  if (!back.ok()) return Text(back.status());
  if (ngd::FingerprintSigma(*back, schema) !=
      ngd::FingerprintSigma(inflated, schema)) {
    return "inflated catalog does not round-trip through the rule DSL";
  }
  *rules = inflated.size();
  return Error();
}

// ---- Graph and rules -------------------------------------------------------

GraphShape Shape(const LoadedGraph& g) {
  GraphShape sh;
  if (g.graph != nullptr) {
    sh.nodes = g.graph->NumNodes();
    sh.edges = g.graph->NumEdges(ngd::GraphView::kNew);
  } else if (g.base != nullptr) {
    sh.nodes = g.base->NumNodes();
  }
  return sh;
}

Error LoadSnapshot(const std::string& path, LoadedGraph* g) {
  g->schema = ngd::Schema::Create();
  auto snap = ngd::LoadSnapshotFile(path, g->schema);
  if (!snap.ok()) return Text(snap.status());
  g->base = std::move(snap).value();
  return Error();
}

Error Materialize(LoadedGraph* g) {
  if (g->base == nullptr) return "materialize needs a loaded snapshot";
  auto live = ngd::MaterializeGraph(*g->base);
  if (!live.ok()) return Text(live.status());
  g->graph = std::move(live).value();
  return Error();
}

Error ParseTsv(const std::string& path, int threads, LoadedGraph* g) {
  g->schema = ngd::Schema::Create();
  ngd::IngestOptions opts;
  opts.threads = threads;
  auto live = ngd::LoadGraphFile(path, g->schema, opts);
  if (!live.ok()) return Text(live.status());
  g->graph = std::move(live).value();
  g->base.reset();
  return Error();
}

void BuildBase(LoadedGraph* g) {
  g->base.reset();  // release the old CSR before building the new one
  g->base = std::make_unique<ngd::GraphSnapshot>(*g->graph,
                                                 ngd::GraphView::kNew);
}

Error ParseRules(const std::string& path, const LoadedGraph& g,
                 ngd::NgdSet* rules) {
  auto text = ReadText(path);
  if (!text.ok()) return Text(text.status());
  auto sigma = ngd::ParseNgds(*text, g.schema);
  if (!sigma.ok()) return Text(sigma.status());
  *rules = std::move(sigma).value();
  return Error();
}

void ClearMinimizeCache() { ngd::ClearSigmaOptimizerCache(); }

MinimizeReport ResolveMinimizeAuto(const ngd::NgdSet& rules,
                                   const LoadedGraph& g) {
  ngd::MinimizedSigma m;
  MinimizeReport r;
  r.minimized = ngd::ResolveMinimizedSigma(rules, g.schema,
                                           ngd::MinimizeMode::kAuto,
                                           ngd::SigmaOptimizerOptions(), &m);
  if (!r.minimized) {
    r.kept = rules.size();
    return r;
  }
  r.kept = m.report.kept.size();
  r.dropped = m.report.dropped.size();
  r.implication_checks = m.report.implication_checks;
  r.unknown = m.report.unknown;
  return r;
}

// ---- Batch detection -------------------------------------------------------

ngd::VioSet Dect(const LoadedGraph& g, const ngd::NgdSet& rules,
                 const DectConfig& cfg) {
  ngd::DectOptions opts;
  if (cfg.use_base) opts.snapshot = g.base.get();
  if (cfg.live_engine) opts.snapshot_mode = ngd::SnapshotMode::kNever;
  if (cfg.minimize_auto) opts.minimize_sigma = ngd::MinimizeMode::kAuto;
  opts.spill = cfg.spill;
  return ngd::Dect(*g.graph, rules, opts);
}

ngd::PDectResult PDect(const LoadedGraph& g, const ngd::NgdSet& rules, int p,
                       const ngd::VioSpillOptions* spill) {
  ngd::PDectOptions opts;
  opts.num_processors = p;
  opts.spill = spill;
  return ngd::PDect(*g.graph, rules, opts);
}

Error Drain(const ngd::VioSet& vio, VioDigest* digest) {
  *digest = VioDigest();
  ngd::StatusOr<ngd::VioCursor> cursor = vio.OpenCursor();
  if (!cursor.ok()) return Text(cursor.status());
  ngd::Violation v;
  while (cursor->Next(&v)) Digest(v, digest);
  if (!cursor->status().ok()) return Text(cursor->status());
  if (digest->count != vio.size()) return "cursor stream ended early";
  return Error();
}

// ---- Layer probes ----------------------------------------------------------

std::vector<uint64_t> CountMatches(const LoadedGraph& g,
                                   const ngd::NgdSet& rules) {
  std::vector<uint64_t> counts;
  for (const ngd::Ngd& rule : rules.ngds()) {
    uint64_t n = 0;
    ngd::SearchConfig config;
    config.snapshot = g.base.get();
    config.pattern = &rule.pattern();
    config.x = &rule.X();
    config.y = &rule.Y();
    config.find_violations = false;
    ngd::RunBatchSearch(config, [&n](const ngd::Binding&) {
      ++n;
      return true;
    });
    counts.push_back(n);
  }
  return counts;
}

ngd::Partition PartitionGraph(const LoadedGraph& g, int p) {
  return ngd::PartitionGraph(*g.graph, p);
}

uint64_t BuildFragments(const LoadedGraph& g, const ngd::Partition& part,
                        const ngd::NgdSet& rules) {
  const ngd::FragmentRuntime rt(*g.graph, part, ngd::GraphView::kNew,
                                rules.MaxDiameter());
  return rt.total_halo_nodes();
}

// ---- Epochs ----------------------------------------------------------------

Batch GenerateBatch(LoadedGraph* g, const BatchSpec& spec) {
  ngd::UpdateGenOptions opts;
  opts.fraction = spec.fraction;
  opts.insert_fraction = spec.insert_fraction;
  opts.new_node_prob = spec.new_node_prob;
  opts.seed = spec.seed;
  Batch out;
  out.first_new_node = static_cast<ngd::NodeId>(g->graph->NumNodes());
  out.updates = ngd::GenerateUpdateBatch(g->graph.get(), opts);
  return out;
}

Error ApplyBatch(LoadedGraph* g, Batch* batch) {
  return Text(ngd::ApplyUpdateBatch(g->graph.get(), &batch->updates));
}

Error CreateJournal(const std::string& path,
                    std::unique_ptr<ngd::UpdateLog>* journal) {
  auto log = ngd::UpdateLog::Create(path, 0);
  if (!log.ok()) return Text(log.status());
  *journal = std::move(log).value();
  return Error();
}

Error JournalEpoch(const LoadedGraph& g, const Batch& batch,
                   ngd::UpdateLog* journal) {
  const ngd::EpochRecord rec =
      ngd::EpochRecord::Capture(*g.graph, batch.updates, batch.first_new_node,
                                journal->last_epoch() + 1);
  Error e = Text(journal->Append(rec));
  if (e.empty()) e = Text(journal->Sync());
  return e;
}

Error IncDect(const LoadedGraph& g, const ngd::NgdSet& rules,
              const Batch& batch, ngd::DeltaVio* delta) {
  ngd::IncDectOptions opts;
  opts.base_snapshot = g.base.get();
  opts.minimize_sigma = ngd::MinimizeMode::kAuto;
  auto r = ngd::IncDect(*g.graph, rules, batch.updates, opts);
  if (!r.ok()) return Text(r.status());
  *delta = std::move(r).value();
  return Error();
}

Error PIncDect(const LoadedGraph& g, const ngd::NgdSet& rules,
               const Batch& batch, int p, ngd::PIncDectResult* result) {
  ngd::PIncDectOptions opts;
  opts.num_processors = p;
  opts.base_snapshot = g.base.get();
  opts.minimize_sigma = ngd::MinimizeMode::kAuto;
  auto r = ngd::PIncDect(*g.graph, rules, batch.updates, opts);
  if (!r.ok()) return Text(r.status());
  *result = std::move(r).value();
  return result->truncated ? "PIncDect run truncated" : Error();
}

Error DigestDelta(const ngd::DeltaVio& delta, VioDigest* added,
                  VioDigest* removed) {
  Error e = Drain(delta.added, added);
  if (e.empty()) e = Drain(delta.removed, removed);
  return e;
}

void Commit(LoadedGraph* g) { g->graph->Commit(); }

size_t BuildDeltaView(const LoadedGraph& g, const Batch& batch) {
  const ngd::DeltaView dv(*g.base, *g.graph, batch.updates);
  return dv.NumDeltaEntries();
}

size_t CountPivotTasks(const LoadedGraph& g, const ngd::NgdSet& rules,
                       const Batch& batch) {
  const ngd::UpdateIndex index(*g.graph, batch.updates);
  return ngd::EnumeratePivotTasks(*g.graph, rules, index).size();
}

bool ArmFaultsFromEnv() { return ngd::failpoint::ArmFromEnv(); }

}  // namespace perfbench
