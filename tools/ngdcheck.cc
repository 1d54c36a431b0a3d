// ngdcheck: command-line NGD inconsistency checker.
//
// Loads a graph — TSV (graph_io.h format, parsed chunk-parallel) or a
// binary snapshot file (snapshot_io.h, detected by magic bytes) — and an
// NGD rule file (parser.h DSL), runs batch or incremental detection —
// sequential or parallel — and emits the violations as JSON on stdout.
// A snapshot input feeds the batch engines (Dect/PDect) directly as the
// pre-built CSR backend and the incremental engines (IncDect/PIncDect)
// as the DeltaView base snapshot; the violation output is identical to
// the TSV path either way.
//
//   ngdcheck --graph G.tsv --rules R.ngd                  # batch, Dect
//   ngdcheck --graph G.tsv --rules R.ngd --parallel 8     # batch, PDect
//   ngdcheck --graph G.tsv --rules R.ngd --updates D.tsv
//       --mode incremental                                # IncDect
//   ngdcheck --graph G.tsv --save-snapshot G.ngds         # TSV -> binary
//   ngdcheck --graph G.ngds --rules R.ngd                 # snapshot input
//
// Update files carry one unit update per line, whitespace-separated:
//   I <src> <dst> <label>     insert edge into ΔG+
//   D <src> <dst> <label>     delete edge into ΔG-
// '#' starts a comment. Node ids refer to the loaded graph; an insert may
// not reference nodes that do not exist (ngdcheck does not create nodes).
//
// Exit status: 0 on success (violations or not), 1 on usage/input errors,
// 2 if --fail-on-violations is given and any violation (or ΔVio+) exists,
// 3 if an input file is corrupt (snapshot/journal/update framing or
// checksum failures — Status code kCorruption).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parser.h"
#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "detect/vio_stream.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "graph/snapshot_io.h"
#include "graph/update_log.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "reason/sigma_optimizer.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ngd {
namespace {

constexpr const char* kUsage = R"(usage: ngdcheck --graph FILE --rules FILE [options]

Detects violations of numeric graph dependencies (NGDs) and prints them
as JSON.

required:
  --graph FILE        graph: TSV (src/graph/graph_io.h) or a binary
                      snapshot file (src/graph/snapshot_io.h; detected by
                      magic bytes, typically *.ngds)
  --rules FILE        NGD rule file in the DSL (see src/core/parser.h);
                      optional when only --save-snapshot is requested

options:
  --save-snapshot FILE  write the loaded graph as a binary snapshot
                      (kNew view) to FILE; with --rules detection still
                      runs afterwards, without --rules ngdcheck converts
                      and exits
  --threads N         TSV parser threads (default: hardware concurrency)
  --mode MODE         batch (default) or incremental
  --updates FILE      unit-update file ("I|D <src> <dst> <label>" lines);
                      required for --mode incremental
  --parallel N        use the parallel engine (PDect / PIncDect) with N
                      simulated processors
  --max-violations N  stop collecting per NGD after N violations
                      (sequential batch mode only)
  --wal FILE          write-ahead journal. With --mode incremental the
                      update batch is appended (and fsynced) to FILE as
                      the next epoch before detection runs, so the batch
                      survives a crash; with --recover, FILE is the
                      journal replayed over the snapshot
  --recover           rebuild state instead of loading it: --graph names
                      the latest-good snapshot (missing = empty base) and
                      --wal the journal whose suffix is replayed onto it;
                      batch detection then runs on the recovered graph
  --deadline-ms N     best-effort time budget: detection stops expanding
                      when the deadline expires and reports the
                      violations found so far, with "truncated": true and
                      the count of fully-enumerated rules in the JSON
  --minimize-sigma    run the Sigma-optimizer before detection: rules the
                      remaining set implies are dropped (any violation of
                      a dropped rule co-occurs with a kept-rule violation)
                      and a "sigma_optimizer" report section is emitted.
                      In incremental mode added/removed cover the KEPT
                      rules only — a dropped rule's co-occurring kept
                      violation may predate the batch — so combining with
                      --fail-on-violations there is rejected (the exit-2
                      gate would weaken silently)
  --fail-on-violations  exit 2 if any violation (or ΔVio+) is found
  --help              show this message
)";

struct Options {
  std::string graph_path;
  std::string rules_path;
  std::string updates_path;
  std::string save_snapshot_path;
  std::string wal_path;
  std::string mode = "batch";
  int parallel = 0;  // 0 = sequential
  int threads = 0;   // TSV parser threads; 0 = hardware concurrency
  size_t max_violations = 0;
  int64_t deadline_ms = 0;  // 0 = no deadline
  bool recover = false;
  bool minimize_sigma = false;
  bool fail_on_violations = false;
};

bool ParseArgs(int argc, char** argv, Options* opts, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        *error = std::string(flag) + " requires a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (arg == "--graph") {
      const char* v = need_value("--graph");
      if (v == nullptr) return false;
      opts->graph_path = v;
    } else if (arg == "--rules") {
      const char* v = need_value("--rules");
      if (v == nullptr) return false;
      opts->rules_path = v;
    } else if (arg == "--updates") {
      const char* v = need_value("--updates");
      if (v == nullptr) return false;
      opts->updates_path = v;
    } else if (arg == "--save-snapshot") {
      const char* v = need_value("--save-snapshot");
      if (v == nullptr) return false;
      opts->save_snapshot_path = v;
    } else if (arg == "--threads") {
      const char* v = need_value("--threads");
      if (v == nullptr) return false;
      auto n = ParseInt64(v);
      if (!n || *n <= 0 || *n > 1024) {
        *error = "--threads requires a thread count in [1, 1024], got " +
                 std::string(v);
        return false;
      }
      opts->threads = static_cast<int>(*n);
    } else if (arg == "--mode") {
      const char* v = need_value("--mode");
      if (v == nullptr) return false;
      opts->mode = v;
    } else if (arg == "--parallel") {
      const char* v = need_value("--parallel");
      if (v == nullptr) return false;
      auto n = ParseInt64(v);
      if (!n || *n <= 0 || *n > 1 << 20) {
        *error = "--parallel requires a positive processor count, got " +
                 std::string(v);
        return false;
      }
      opts->parallel = static_cast<int>(*n);
    } else if (arg == "--max-violations") {
      const char* v = need_value("--max-violations");
      if (v == nullptr) return false;
      auto n = ParseInt64(v);
      if (!n || *n < 0) {
        *error = "--max-violations requires a non-negative count, got " +
                 std::string(v);
        return false;
      }
      opts->max_violations = static_cast<size_t>(*n);
    } else if (arg == "--wal") {
      const char* v = need_value("--wal");
      if (v == nullptr) return false;
      opts->wal_path = v;
    } else if (arg == "--recover") {
      opts->recover = true;
    } else if (arg == "--deadline-ms") {
      const char* v = need_value("--deadline-ms");
      if (v == nullptr) return false;
      auto n = ParseInt64(v);
      if (!n || *n <= 0) {
        *error = "--deadline-ms requires a positive millisecond budget, "
                 "got " +
                 std::string(v);
        return false;
      }
      opts->deadline_ms = *n;
    } else if (arg == "--minimize-sigma") {
      opts->minimize_sigma = true;
    } else if (arg == "--fail-on-violations") {
      opts->fail_on_violations = true;
    } else {
      *error = "unknown argument: " + std::string(arg);
      return false;
    }
  }
  if (opts->graph_path.empty()) {
    *error = "--graph is required";
    return false;
  }
  if (opts->rules_path.empty() && opts->save_snapshot_path.empty()) {
    *error = "--rules is required (unless only --save-snapshot is given)";
    return false;
  }
  if (opts->mode != "batch" && opts->mode != "incremental") {
    *error = "--mode must be batch or incremental";
    return false;
  }
  if (opts->mode == "incremental" && opts->updates_path.empty()) {
    *error = "--mode incremental requires --updates";
    return false;
  }
  if (opts->recover && opts->wal_path.empty()) {
    *error = "--recover requires --wal (the journal to replay)";
    return false;
  }
  if (opts->recover && opts->mode != "batch") {
    *error = "--recover runs batch detection on the recovered graph; "
             "it cannot be combined with --mode incremental";
    return false;
  }
  if (!opts->wal_path.empty() && !opts->recover &&
      opts->mode != "incremental") {
    *error = "--wal journals update batches: it requires --mode "
             "incremental (or --recover)";
    return false;
  }
  if (opts->max_violations > 0 &&
      (opts->mode != "batch" || opts->parallel > 0)) {
    *error = "--max-violations is only supported by the sequential batch "
             "engine (no --parallel, no --mode incremental)";
    return false;
  }
  if (opts->minimize_sigma && opts->fail_on_violations &&
      opts->mode == "incremental") {
    // Minimization preserves Vio-emptiness but NOT dVio+-emptiness: a
    // dropped rule's newly-introduced violation is only guaranteed a
    // co-occurring kept-rule violation in the post-update graph as a
    // whole, which may predate the batch and thus be absent from
    // dVio+. Letting the combination through would silently weaken the
    // exit-2 gate pipelines rely on.
    *error = "--minimize-sigma cannot be combined with "
             "--fail-on-violations in incremental mode (dVio+ covers "
             "kept rules only; the gate would weaken)";
    return false;
  }
  return true;
}

/// Uniform failure reporting: every Status that aborts the run prints as
/// "ngdcheck: <context>: [CODE] message" on stderr, and data-integrity
/// failures get their own exit code so scripts can tell a corrupt
/// snapshot/journal (3) from a usage or missing-file error (1).
int FailWith(const std::string& context, const Status& s) {
  std::cerr << "ngdcheck: " << context << ": [" << StatusCodeName(s.code())
            << "] " << s.message() << "\n";
  return s.code() == StatusCode::kCorruption ? 3 : 1;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

StatusOr<UpdateBatch> ReadUpdateFile(const std::string& path, const Graph& g) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  UpdateBatch batch;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto err = [&](const std::string& msg) {
      return Status::Corruption(path + ":" + std::to_string(lineno) + ": " +
                                msg);
    };
    std::istringstream fields(line);
    std::string kind, label;
    uint64_t src = 0;
    uint64_t dst = 0;
    if (!(fields >> kind) || kind[0] == '#') continue;
    if (kind != "I" && kind != "D") {
      return err("update kind must be I or D, got " + kind);
    }
    if (!(fields >> src >> dst >> label)) {
      return err("expected: " + kind + " <src> <dst> <label>");
    }
    if (src >= g.NumNodes() || dst >= g.NumNodes()) {
      return err("edge endpoint out of range");
    }
    UnitUpdate u;
    u.kind = kind == "I" ? UpdateKind::kInsert : UpdateKind::kDelete;
    u.src = static_cast<NodeId>(src);
    u.dst = static_cast<NodeId>(dst);
    u.label = g.schema()->InternLabel(label);
    batch.updates.push_back(u);
  }
  return batch;
}

void JsonEscape(const std::string& s, std::ostream* os) {
  for (char c : s) {
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
}

/// Partial-result shape of a (possibly deadline-bounded) detection run.
void WriteRunInfo(const DetectRunInfo& info, std::ostream* os) {
  size_t completed = 0;
  for (char c : info.rule_completed) completed += c != 0 ? 1 : 0;
  *os << "  \"truncated\": " << (info.truncated ? "true" : "false") << ",\n";
  *os << "  \"rules_completed\": " << completed << ",\n";
}

/// One violation as a JSON object: rule name plus the h(x̄) assignment
/// keyed by pattern variable.
void WriteViolation(const Violation& v, const NgdSet& sigma,
                    std::ostream* os, const char* indent) {
  const Ngd& ngd = sigma[v.ngd_index];
  *os << indent << "{\"rule\": \"";
  JsonEscape(ngd.name(), os);
  *os << "\", \"nodes\": {";
  const auto& nodes = ngd.pattern().nodes();
  for (size_t i = 0; i < v.nodes.size(); ++i) {
    if (i > 0) *os << ", ";
    *os << '"';
    JsonEscape(nodes[i].var, os);
    *os << "\": " << v.nodes[i];
  }
  *os << "}}";
}

void WriteVioArray(const VioSet& vio, const NgdSet& sigma,
                   std::ostream* os) {
  *os << "[";
  bool first = true;
  // Stream through the cursor instead of materializing Sorted(): same
  // (rule, nodes) order, but one Violation resident at a time — and the
  // only whole-set read that works on a spilled set.
  StatusOr<VioCursor> cursor = vio.OpenCursor();
  if (cursor.ok()) {
    Violation v;
    while (cursor->Next(&v)) {
      *os << (first ? "\n" : ",\n");
      first = false;
      WriteViolation(v, sigma, os, "    ");
    }
  }
  *os << (first ? "]" : "\n  ]");
}

int Run(const Options& opts) {
  SchemaPtr schema = Schema::Create();

  // Graph input: binary snapshot (by magic) or TSV. A snapshot loads
  // O(sections) into the CSR backend the batch engines match against;
  // the live overlay Graph every engine needs for schema/stats (and the
  // incremental path mutates) is materialized from it.
  std::unique_ptr<GraphSnapshot> loaded_snapshot;
  std::unique_ptr<Graph> owned_graph;
  RecoverResult recovery;
  const bool is_snapshot_input =
      !opts.recover && SniffSnapshotFile(opts.graph_path);
  if (opts.recover) {
    // --graph names the latest-good snapshot here (missing = empty base);
    // the journal suffix at --wal is replayed on top.
    auto rec = RecoverState(opts.graph_path, opts.wal_path, schema);
    if (!rec.ok()) return FailWith("recovering state", rec.status());
    recovery = std::move(*rec);
    owned_graph = std::move(recovery.graph);
  } else if (is_snapshot_input) {
    auto snap = LoadSnapshotFile(opts.graph_path, schema);
    if (!snap.ok()) {
      return FailWith("loading " + opts.graph_path, snap.status());
    }
    loaded_snapshot = std::move(snap).value();
    auto materialized = MaterializeGraph(*loaded_snapshot);
    if (!materialized.ok()) {
      return FailWith("materializing " + opts.graph_path,
                      materialized.status());
    }
    owned_graph = std::move(materialized).value();
  } else {
    IngestOptions ingest;
    ingest.threads = opts.threads;
    auto graph = LoadGraphFile(opts.graph_path, schema, ingest);
    if (!graph.ok()) {
      return FailWith("loading " + opts.graph_path, graph.status());
    }
    owned_graph = std::move(graph).value();
  }
  Graph& g = *owned_graph;

  // Built lazily for --save-snapshot on a TSV input; kept alive so batch
  // detection below reuses it instead of rebuilding an identical CSR.
  std::unique_ptr<GraphSnapshot> built_snapshot;
  if (!opts.save_snapshot_path.empty()) {
    Status saved;
    if (loaded_snapshot != nullptr &&
        loaded_snapshot->view() == GraphView::kNew) {
      saved = SaveSnapshotFile(*loaded_snapshot, opts.save_snapshot_path);
    } else {
      built_snapshot = std::make_unique<GraphSnapshot>(g, GraphView::kNew);
      saved = SaveSnapshotFile(*built_snapshot, opts.save_snapshot_path);
    }
    if (!saved.ok()) return FailWith("saving snapshot", saved);
    if (opts.rules_path.empty()) {
      std::ostream& os = std::cout;
      os << "{\n";
      os << "  \"graph\": \"";
      JsonEscape(opts.graph_path, &os);
      os << "\",\n";
      os << "  \"snapshot_saved\": \"";
      JsonEscape(opts.save_snapshot_path, &os);
      os << "\",\n";
      os << "  \"nodes\": " << g.NumNodes() << ",\n";
      os << "  \"edges\": " << g.NumEdges(GraphView::kNew) << "\n";
      os << "}\n";
      return 0;
    }
  }

  auto rules_text = ReadFile(opts.rules_path);
  if (!rules_text.ok()) {
    return FailWith("reading rules", rules_text.status());
  }
  auto sigma = ParseNgds(*rules_text, schema);
  if (!sigma.ok()) {
    return FailWith("parsing " + opts.rules_path, sigma.status());
  }

  std::ostream& os = std::cout;
  os << "{\n";
  os << "  \"graph\": \"";
  JsonEscape(opts.graph_path, &os);
  os << "\",\n";
  os << "  \"graph_format\": \""
     << (is_snapshot_input ? "snapshot" : "tsv") << "\",\n";
  os << "  \"nodes\": " << g.NumNodes() << ",\n";
  os << "  \"edges\": " << g.NumEdges(GraphView::kNew) << ",\n";
  os << "  \"rules\": " << sigma->size() << ",\n";
  os << "  \"mode\": \"" << opts.mode
     << (opts.parallel > 0 ? "-parallel" : "") << "\",\n";
  if (opts.recover) {
    os << "  \"recovery\": {\"snapshot_loaded\": "
       << (recovery.snapshot_loaded ? "true" : "false")
       << ", \"last_epoch\": " << recovery.last_epoch
       << ", \"replayed_records\": " << recovery.replayed_records
       << ", \"truncated_bytes\": " << recovery.truncated_bytes << "},\n";
  }

  // Σ-optimizer: minimize up front (rather than per engine call via
  // DectOptions::minimize_sigma) so the report is visible in the JSON,
  // then run detection on the kept rules — their names are preserved, so
  // the violation output below needs no remapping. Incremental mode
  // validates the FULL catalog first, exactly as the engine wiring does:
  // an optimization flag must never flip a rejected rules file into an
  // accepted run just because the offending rule happened to be implied.
  if (opts.minimize_sigma) {
    if (opts.mode == "incremental") {
      Status valid = ValidateForIncremental(*sigma);
      if (!valid.ok()) return FailWith("validating rules", valid);
    }
    WallTimer opt_timer;
    MinimizedSigma m = MinimizeSigma(*sigma, schema);
    os << "  \"sigma_optimizer\": {\n";
    // Structural catalog identity: equal values across runs mean the
    // kept-set cache would have served this Σ without re-solving.
    os << "    \"sigma_fingerprint\": \"" << std::hex
       << FingerprintSigma(*sigma, schema) << std::dec << "\",\n";
    os << "    \"rules_before\": " << sigma->size() << ",\n";
    os << "    \"rules_kept\": " << m.report.kept.size() << ",\n";
    os << "    \"dropped\": [";
    for (size_t i = 0; i < m.report.dropped.size(); ++i) {
      os << (i > 0 ? ", " : "") << '"';
      JsonEscape((*sigma)[static_cast<size_t>(m.report.dropped[i])].name(),
                 &os);
      os << '"';
    }
    os << "],\n";
    os << "    \"duplicate_drops\": " << m.report.duplicate_drops << ",\n";
    os << "    \"implication_checks\": " << m.report.implication_checks
       << ",\n";
    os << "    \"unknown_checks\": " << m.report.unknown << ",\n";
    os << "    \"prefilter_skips\": " << m.report.prefilter_skips << ",\n";
    os << "    \"solver_seconds\": " << m.report.solver_seconds << ",\n";
    os << "    \"elapsed_seconds\": " << opt_timer.ElapsedSeconds() << "\n";
    os << "  },\n";
    *sigma = std::move(m.sigma);
  }

  bool dirty = false;
  // Deadline-bounded detection: engines stop expanding when the budget
  // expires and report the partial-result shape through run_info.
  const Deadline deadline = opts.deadline_ms > 0
                                ? Deadline::After(opts.deadline_ms)
                                : Deadline();
  DetectRunInfo run_info;
  WallTimer timer;
  if (opts.mode == "batch") {
    VioSet vio;
    if (opts.parallel > 0) {
      // PDect fragments the (materialized) graph itself.
      PDectOptions popts;
      popts.num_processors = opts.parallel;
      popts.deadline = deadline;
      popts.run_info = &run_info;
      vio = PDect(g, *sigma, popts).vio;
    } else {
      // A loaded (or just-saved) kNew snapshot IS the batch search
      // backend — no rebuild.
      DectOptions dopts;
      dopts.max_violations_per_ngd = opts.max_violations;
      dopts.snapshot = loaded_snapshot != nullptr &&
                               loaded_snapshot->view() == GraphView::kNew
                           ? loaded_snapshot.get()
                           : built_snapshot.get();
      dopts.deadline = deadline;
      dopts.run_info = &run_info;
      vio = Dect(g, *sigma, dopts);
    }
    double elapsed = timer.ElapsedSeconds();
    dirty = !vio.empty();
    os << "  \"violation_count\": " << vio.size() << ",\n";
    os << "  \"violations\": ";
    WriteVioArray(vio, *sigma, &os);
    os << ",\n";
    WriteRunInfo(run_info, &os);
    os << "  \"elapsed_seconds\": " << elapsed << "\n";
  } else {
    auto batch = ReadUpdateFile(opts.updates_path, g);
    if (!batch.ok()) {
      return FailWith("reading updates", batch.status());
    }
    Status applied = ApplyUpdateBatch(&g, &*batch);
    if (!applied.ok()) return FailWith("applying updates", applied);
    // Crash-safe epoch: journal the (effective) batch before detection,
    // following the mutate → Append+Sync → commit protocol of
    // graph/update_log.h. A crash from here on loses no updates.
    uint64_t journaled_epoch = 0;
    if (!opts.wal_path.empty()) {
      auto wal = UpdateLog::Open(opts.wal_path);
      if (!wal.ok()) {
        return FailWith("opening journal " + opts.wal_path, wal.status());
      }
      // ngdcheck updates never create nodes, so the epoch's first new
      // node id is just NumNodes().
      journaled_epoch = (*wal)->last_epoch() + 1;
      const EpochRecord rec = EpochRecord::Capture(
          g, *batch, static_cast<NodeId>(g.NumNodes()), journaled_epoch);
      Status journaled = (*wal)->Append(rec);
      if (journaled.ok()) journaled = (*wal)->Sync();
      if (!journaled.ok()) {
        return FailWith("journaling to " + opts.wal_path, journaled);
      }
      os << "  \"journal\": {\"path\": \"";
      JsonEscape(opts.wal_path, &os);
      os << "\", \"epoch\": " << journaled_epoch << "},\n";
    }
    // Time only the detection itself, matching batch mode (update-file
    // IO, journaling and overlay application are setup, not IncDect
    // work).
    timer.Restart();
    // A loaded snapshot is exactly the pre-update graph (ΔG was applied
    // as the overlay on the materialized copy), so it serves as the
    // DeltaView base the incremental engines never have to rebuild.
    DeltaVio delta;
    if (opts.parallel > 0) {
      PIncDectOptions popts;
      popts.num_processors = opts.parallel;
      popts.base_snapshot = loaded_snapshot != nullptr
                                ? loaded_snapshot.get()
                                : built_snapshot.get();
      popts.deadline = deadline;
      popts.run_info = &run_info;
      auto result = PIncDect(g, *sigma, *batch, popts);
      if (!result.ok()) {
        return FailWith("incremental detection", result.status());
      }
      delta = std::move(result->delta);
    } else {
      IncDectOptions iopts;
      iopts.base_snapshot = loaded_snapshot != nullptr
                                ? loaded_snapshot.get()
                                : built_snapshot.get();
      iopts.deadline = deadline;
      iopts.run_info = &run_info;
      auto result = IncDect(g, *sigma, *batch, iopts);
      if (!result.ok()) {
        return FailWith("incremental detection", result.status());
      }
      delta = std::move(*result);
    }
    double elapsed = timer.ElapsedSeconds();
    dirty = !delta.added.empty();
    os << "  \"updates\": " << batch->size() << ",\n";
    os << "  \"added_count\": " << delta.added.size() << ",\n";
    os << "  \"removed_count\": " << delta.removed.size() << ",\n";
    os << "  \"added\": ";
    WriteVioArray(delta.added, *sigma, &os);
    os << ",\n";
    os << "  \"removed\": ";
    WriteVioArray(delta.removed, *sigma, &os);
    os << ",\n";
    WriteRunInfo(run_info, &os);
    os << "  \"elapsed_seconds\": " << elapsed << "\n";
  }
  os << "}\n";

  if (opts.fail_on_violations && dirty) return 2;
  return 0;
}

}  // namespace
}  // namespace ngd

int main(int argc, char** argv) {
  ngd::Options opts;
  std::string error;
  if (!ngd::ParseArgs(argc, argv, &opts, &error)) {
    std::cerr << "ngdcheck: " << error << "\n\n" << ngd::kUsage;
    return 1;
  }
  return ngd::Run(opts);
}
