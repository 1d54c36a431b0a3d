// ngd_perfbench: the repository's benchmark harness.
//
// Two subcommands, each run in its own process by perfbench/run.py:
//
//   ngd_perfbench generate --workload W --seed N --dir D --rules-dir R
//       writes the workload's inputs for seed N into D (never timed);
//   ngd_perfbench measure --workload W --seed N --seconds S --trace 0|1
//       --dir D [--trace-dir T]
//       runs the workload against the inputs in D for about S seconds and
//       prints its metrics; the last stdout line is the result JSON.
//
// A measure run checks every output it times (README.md, Output checks); a pass
// or epoch whose check fails counts in `failed`. With --trace 1 it also
// records a span around every library call, writes them to T as Chrome
// trace-event JSON plus a self-time table, and reports the per-layer
// metrics instead of the end-to-end ones. See perfbench/README.md.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapter.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---- Workloads --------------------------------------------------------------

enum class Input { kSynthetic, kFlood };

struct Workload {
  const char* name;
  Input input;
  SyntheticSpec synthetic;  // kSynthetic
  FloodSpec flood;          // kFlood
  bool snapshot_input;      // NGDSNAP1 (else TSV) is what passes load
  const char* rules_file;   // under --rules-dir
  InflateSpec inflate;      // variants_per_rule 0 = use the file as is
  size_t spill_budget;      // 0 = results stay resident
  const char* headline;     // the metric trace_overhead compares
};

constexpr size_t kMiB = size_t{1} << 20;

// Every workload's update batches: 1% of |E|, half inserts, new-node
// probability 0.1; the seed is set per epoch.
constexpr BatchSpec kEpochBatch = {0.01, 0.5, 0.1, 0};

// Why each workload exists is in README.md; sizes here are the full
// benchmark, Scaled() shrinks them for the self-test.
const Workload kWorkloads[] = {
    {"batch_hub",
     Input::kSynthetic,
     {80000, 240000, 0.95, 25, 50, 0},
     {},
     true,
     "batch_hub.ngd",
     {},
     0,
     "audit_s"},
    {"violation_flood",
     Input::kFlood,
     {},
     {30, 300, 0},
     false,
     "violation_flood.ngd",
     {},
     8 * kMiB,
     "audit_s"},
    {"epoch_stream",
     Input::kSynthetic,
     {20000, 60000, 0.85, 25, 50, 0},
     {},
     true,
     "epoch_stream.ngd",
     {4, 0.25, 17},  // ngdbench sigma_minimize's inflation, fixed seed
     0,
     "epoch_p50_ms"},
};

Workload Scaled(Workload w, bool small) {
  if (!small) return w;
  w.synthetic.nodes /= 10;
  w.synthetic.edges /= 10;
  w.flood.readings /= 10;
  w.spill_budget /= 64;  // still spills at a hundredth of the violations
  return w;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---- Options ----------------------------------------------------------------

struct Options {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string dir;
  std::string rules_dir = "perfbench/rules";
  std::string trace_dir;
  std::string git_sha = "unknown";
  /// Self-test only: corrupt one expected value so its check must fail
  /// (oracle, pdect, pincdect or closure).
  std::string break_check;
};

bool ParseArgs(int argc, char** argv, Options* o, std::string* err) {
  if (argc < 2) {
    *err = "usage: ngd_perfbench generate|measure --workload W --seed N ...";
    return false;
  }
  o->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--small") {
      o->small = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = a + " needs a value";
      return false;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o->trace = v == "1";
    } else if (a == "--dir") {
      o->dir = v;
    } else if (a == "--rules-dir") {
      o->rules_dir = v;
    } else if (a == "--trace-dir") {
      o->trace_dir = v;
    } else if (a == "--git-sha") {
      o->git_sha = v;
    } else if (a == "--break") {
      o->break_check = v;
    } else {
      *err = "unknown argument " + a;
      return false;
    }
  }
  if (o->dir.empty()) {
    *err = "--dir is required";
    return false;
  }
  if (o->seconds <= 0) {
    *err = "--seconds must be positive";
    return false;
  }
  return true;
}

int Processors() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

struct Inputs {
  std::string snapshot, tsv, rules;
};
Inputs InputsIn(const std::string& dir) {
  return {dir + "/graph.ngds", dir + "/graph.tsv", dir + "/rules.ngd"};
}

// ---- generate ---------------------------------------------------------------

int Generate(const Options& o, const Workload& w) {
  std::error_code ec;
  fs::create_directories(o.dir, ec);
  const Inputs in = InputsIn(o.dir);
  GraphShape shape;
  Error e;
  if (w.input == Input::kSynthetic) {
    SyntheticSpec spec = w.synthetic;
    spec.seed = o.seed;
    e = GenerateSynthetic(spec, in.snapshot, in.tsv, &shape);
  } else {
    FloodSpec spec = w.flood;
    spec.seed = o.seed;
    e = GenerateFlood(spec, in.snapshot, in.tsv, &shape);
  }
  const std::string rules = o.rules_dir + "/" + w.rules_file;
  size_t num_rules = 0;
  if (e.empty() && w.inflate.variants_per_rule > 0) {
    e = InflateCatalog(rules, w.inflate, in.rules, &num_rules);
  } else if (e.empty()) {
    fs::copy_file(rules, in.rules, fs::copy_options::overwrite_existing, ec);
    if (ec) e = "copying " + rules + ": " + ec.message();
  }
  if (!e.empty()) {
    std::fprintf(stderr, "ngd_perfbench: generate %s: %s\n", w.name, e.c_str());
    return 1;
  }
  std::printf("generated %s seed %llu: %zu nodes, %zu edges\n", w.name,
              static_cast<unsigned long long>(o.seed), shape.nodes,
              shape.edges);
  return 0;
}

// ---- measure ----------------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Times one library call and, when tracing, records it as a span.
class Stage {
 public:
  Stage(Tracer* tracer, const char* name, const std::string& group)
      : tracer_(tracer), start_(Clock::now()) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(name, group, start_);
  }
  ~Stage() { Stop(); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  double Stop() {
    if (!stopped_) {
      const Clock::time_point end = Clock::now();
      if (tracer_ != nullptr) tracer_->End(id_, end);
      elapsed_ = Seconds(end - start_);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  int id_ = -1;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RemoveSpill(const std::string& dir) {
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    fs::remove(ent.path(), ec);
  }
}

class Measure {
 public:
  Measure(const Options& o, const Workload& w)
      : o_(o),
        w_(w),
        in_(InputsIn(o.dir)),
        p_(Processors()),
        spill_dir_(o.dir + "/spill"),
        wal_path_(o.dir + "/journal.ngdwal"),
        audit_headline_(std::string(w.headline) == "audit_s") {
    std::error_code ec;
    fs::create_directories(spill_dir_, ec);
    spill_options_.budget_bytes = w.spill_budget;
    spill_options_.path_prefix = spill_dir_ + "/vio";
    if (w.spill_budget > 0) spill_ = &spill_options_;
  }

  int Run();

 private:
  // Records a sample of per-layer metric `name` when this iteration is
  // traced.
  void Layer(const std::string& name, double v) {
    if (tracer_ != nullptr) layer_[name].push_back(v);
  }
  void Fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }

  Error Load(LoadedGraph* g, const std::string& group, bool snapshot_input,
             bool want_base);
  Error Oracle();
  Error SetUp(size_t i, LoadedGraph* g, ngd::NgdSet* r, MinimizeReport* rep,
              std::unique_ptr<ngd::UpdateLog>* j);
  /// Sets up a fresh engine for epoch chain `chain`.
  Error StartChain(size_t chain);
  void AuditPass(size_t i, bool parallel);
  void Epoch(size_t i, bool closure_check);
  void Probes();
  void Emit();

  const Options& o_;
  const Workload& w_;
  const Inputs in_;
  const int p_;
  const std::string spill_dir_;
  const std::string wal_path_;
  const bool audit_headline_;  // else the headline is epoch_p50_ms
  ngd::VioSpillOptions spill_options_;
  const ngd::VioSpillOptions* spill_ = nullptr;  // null: no spill budget

  Tracer trace_store_;
  Tracer* tracer_ = nullptr;  // null: this iteration is untraced

  LoadedGraph engine_;
  ngd::NgdSet rules_;
  std::unique_ptr<ngd::UpdateLog> journal_;
  MinimizeReport minimize_;
  VioDigest oracle_;
  VioDigest first_audit_;
  bool have_first_audit_ = false;
  VioDigest initial_;  // Vio(Σ, G) of the input graph (kept rules)
  VioDigest running_;  // Vio(Σ, G) of the engine, kept through ΔVio
  size_t violations_ = 0;
  GraphShape input_shape_;

  std::vector<double> setup_s_, audit_s_, paudit_s_, epoch_ms_, pepoch_ms_;
  std::vector<double> traced_headline_, untraced_headline_;
  std::map<std::string, std::vector<double>> layer_;
  std::map<std::string, double> counts_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

Error Measure::Load(LoadedGraph* g, const std::string& group,
                    bool snapshot_input, bool want_base) {
  Error e;
  if (snapshot_input) {
    {
      Stage s(tracer_, "graph.snapshot_load", group);
      e = LoadSnapshot(in_.snapshot, g);
      Layer("graph.snapshot_load_s", s.Stop());
    }
    if (e.empty()) {
      Stage s(tracer_, "graph.materialize", group);
      e = Materialize(g);
      Layer("graph.materialize_s", s.Stop());
    }
    return e;
  }
  {
    Stage s(tracer_, "graph.tsv_parse", group);
    e = ParseTsv(in_.tsv, p_, g);
    Layer("graph.tsv_parse_s", s.Stop());
  }
  if (e.empty() && want_base) {
    Stage s(tracer_, "graph.base_snapshot", group);
    BuildBase(g);
  }
  return e;
}

Error Measure::Oracle() {
  LoadedGraph g;
  ngd::NgdSet r;
  Error e = Load(&g, "oracle", w_.snapshot_input, false);
  if (e.empty()) e = ParseRules(in_.rules, g, &r);
  if (!e.empty()) return e;
  DectConfig cfg;
  cfg.live_engine = true;
  cfg.spill = spill_;
  const ngd::VioSet vio = Dect(g, r, cfg);
  e = Drain(vio, &oracle_);
  if (e.empty()) e = Text(vio.spill_status());
  violations_ = vio.size();
  RemoveSpill(spill_dir_);
  if (o_.break_check == "oracle") oracle_.stream ^= 1;
  return e;
}

Error Measure::SetUp(size_t i, LoadedGraph* g, ngd::NgdSet* r,
                     MinimizeReport* rep, std::unique_ptr<ngd::UpdateLog>* j) {
  const std::string group = "setup#" + std::to_string(i);
  ClearMinimizeCache();
  Stage root(tracer_, "run.setup", group);
  Error e = Load(g, group, w_.snapshot_input, true);
  if (e.empty()) {
    Stage s(tracer_, "core.parse_rules", group);
    e = ParseRules(in_.rules, *g, r);
    Layer("core.parse_rules_s", s.Stop());
  }
  if (e.empty()) {
    Stage s(tracer_, "reason.minimize", group);
    *rep = ResolveMinimizeAuto(*r, *g);
    Layer("reason.minimize_s", s.Stop());
  }
  if (e.empty()) {
    Stage s(tracer_, "graph.wal_create", group);
    e = CreateJournal(wal_path_, j);
  }
  setup_s_.push_back(root.Stop());
  return e;
}

void Measure::AuditPass(size_t i, bool parallel) {
  const std::string group =
      std::string(parallel ? "paudit#" : "audit#") + std::to_string(i);
  ++attempted_;
  VioDigest digest;
  Error e;
  LoadedGraph g;
  ngd::NgdSet r;
  ngd::VioSet vio;
  Stage root(tracer_, parallel ? "run.paudit" : "run.audit", group);
  e = Load(&g, group, w_.snapshot_input, false);
  if (e.empty()) {
    Stage s(tracer_, "core.parse_rules", group);
    e = ParseRules(in_.rules, g, &r);
    Layer("core.parse_rules_s", s.Stop());
  }
  if (e.empty() && parallel) {
    const double cpu0 = CpuSeconds();
    Stage s(tracer_, "parallel.pdect", group);
    ngd::PDectResult presult = PDect(g, r, p_, spill_);
    Layer("parallel.pdect_s", s.Stop());
    if (presult.truncated) e = "PDect run truncated";
    vio = std::move(presult.vio);
    const ngd::ClusterMetricsSnapshot& c = presult.metrics;
    Layer("parallel.pdect_cpu_s", CpuSeconds() - cpu0);
    Layer("parallel.messages", static_cast<double>(c.messages));
    Layer("parallel.steals", static_cast<double>(c.steals));
    Layer("parallel.forwards", static_cast<double>(c.forwards));
    Layer("parallel.splits", static_cast<double>(c.splits));
    Layer("parallel.work_units", static_cast<double>(c.work_units));
    Layer("parallel.inline_runs", static_cast<double>(c.inline_runs));
    Layer("parallel.peak_queue_depth", static_cast<double>(c.peak_queue_depth));
  } else if (e.empty()) {
    DectConfig cfg;
    cfg.use_base = w_.snapshot_input;  // ngdcheck hands a loaded snapshot in
    cfg.spill = spill_;
    Stage s(tracer_, "detect.dect", group);
    vio = Dect(g, r, cfg);
    Layer("detect.dect_s", s.Stop());
  }
  if (e.empty()) {
    Stage s(tracer_, "detect.drain", group);
    e = Drain(vio, &digest);
    Layer("detect.drain_s", s.Stop());
  }
  const double elapsed = root.Stop();
  (parallel ? paudit_s_ : audit_s_).push_back(elapsed);
  if (audit_headline_ && !parallel) {
    (tracer_ != nullptr ? traced_headline_ : untraced_headline_)
        .push_back(elapsed);
  }

  // Checks: the stream equals the oracle's, PDect's equals Dect's, and
  // the spill store reports no error.
  if (e.empty()) e = Text(vio.spill_status());
  if (!e.empty()) {
    Fail(group + ": " + e);
  } else if (!parallel) {
    if (!digest.SameStream(oracle_)) {
      Fail(group + ": stream differs from the oracle");
    } else if (!have_first_audit_) {
      first_audit_ = digest;
      have_first_audit_ = true;
      if (o_.break_check == "pdect") first_audit_.stream ^= 1;
    }
  } else if (!digest.SameStream(have_first_audit_ ? first_audit_ : oracle_)) {
    // Until a Dect pass has passed its check, the oracle stands in.
    Fail(group + ": PDect stream differs from Dect's");
  }
  if (!parallel) {
    Layer("detect.spill_segments",
          static_cast<double>(vio.num_spill_segments()));
    Layer("detect.spilled_records", static_cast<double>(vio.spilled_records()));
    Layer("detect.peak_resident_bytes",
          static_cast<double>(vio.spill_enabled() ? vio.peak_resident_bytes()
                                                  : vio.resident_bytes()));
  }
  vio = ngd::VioSet();
  RemoveSpill(spill_dir_);
}

void Measure::Epoch(size_t i, bool closure_check) {
  const std::string group = "epoch#" + std::to_string(i);
  ++attempted_;
  BatchSpec spec = kEpochBatch;
  spec.seed = Mix(o_.seed, i);
  Batch batch = GenerateBatch(&engine_, spec);

  std::error_code ec;
  const uintmax_t wal_before = fs::file_size(wal_path_, ec);
  Stage root(tracer_, "run.epoch", group);
  double apply = 0, wal = 0, inc = 0, pinc = 0, commit = 0, rebuild = 0;
  Error e;
  {
    Stage s(tracer_, "graph.apply", group);
    e = ApplyBatch(&engine_, &batch);
    apply = s.Stop();
  }
  if (e.empty()) {
    Stage s(tracer_, "graph.wal", group);
    e = JournalEpoch(engine_, batch, journal_.get());
    wal = s.Stop();
  }
  ngd::DeltaVio delta;
  ngd::PIncDectResult presult;
  auto run_inc = [&]() {
    Stage s(tracer_, "detect.incdect", group);
    Error r = IncDect(engine_, rules_, batch, &delta);
    inc = s.Stop();
    return r;
  };
  auto run_pinc = [&]() {
    Stage s(tracer_, "parallel.pincdect", group);
    Error r = PIncDect(engine_, rules_, batch, p_, &presult);
    pinc = s.Stop();
    return r;
  };
  // Alternate which variant runs first, so neither always gets the
  // other's warm caches.
  if (e.empty()) e = i % 2 == 0 ? run_inc() : run_pinc();
  if (e.empty()) e = i % 2 == 0 ? run_pinc() : run_inc();

  VioDigest added, removed, padded, premoved;
  Stage check(tracer_, "check.delta", group);
  if (e.empty()) e = DigestDelta(delta, &added, &removed);
  if (e.empty()) e = DigestDelta(presult.delta, &padded, &premoved);
  if (e.empty() && o_.break_check == "pincdect") padded.stream ^= 1;
  if (e.empty() &&
      (!added.SameStream(padded) || !removed.SameStream(premoved))) {
    e = "PIncDect ΔVio differs from IncDect's";
  }
  if (e.empty()) running_ = running_.Then(removed, added);
  check.Stop();
  if (e.empty() && closure_check) {
    Stage closure(tracer_, "check.closure", group);
    // Vio_prev − ΔVio- + ΔVio+ must equal a fresh Dect(G ⊕ ΔG) (same
    // kept rules as the incremental engines).
    DectConfig cfg;
    cfg.minimize_auto = true;
    cfg.spill = spill_;
    const ngd::VioSet fresh = Dect(engine_, rules_, cfg);
    VioDigest want;
    e = Drain(fresh, &want);
    if (e.empty()) e = Text(fresh.spill_status());
    RemoveSpill(spill_dir_);
    if (e.empty() && o_.break_check == "closure") want.sum ^= 1;
    if (e.empty() && !running_.SameSet(want)) {
      e = "Vio_prev − removed + added differs from Dect(G ⊕ ΔG)";
    }
  }
  if (tracer_ != nullptr && e.empty()) {
    Stage s(tracer_, "graph.delta_view", group);
    BuildDeltaView(engine_, batch);
    Layer("graph.delta_view_ms", 1e3 * s.Stop());
    Stage t(tracer_, "detect.pivot_tasks", group);
    Layer("detect.pivot_tasks",
          static_cast<double>(CountPivotTasks(engine_, rules_, batch)));
  }
  {
    Stage s(tracer_, "graph.commit", group);
    Commit(&engine_);
    commit = s.Stop();
  }
  {
    Stage s(tracer_, "graph.base_snapshot", group);
    BuildBase(&engine_);
    rebuild = s.Stop();
  }
  root.Stop();
  if (!e.empty()) {
    Fail(group + ": " + e);
    return;
  }
  if (closure_check) return;  // check epochs are not timed samples

  const double shared = apply + wal + commit + rebuild;
  epoch_ms_.push_back(1e3 * (shared + inc));
  pepoch_ms_.push_back(1e3 * (shared + pinc));
  if (!audit_headline_) {
    (tracer_ != nullptr ? traced_headline_ : untraced_headline_)
        .push_back(1e3 * (shared + inc));
  }
  Layer("graph.apply_ms", 1e3 * apply);
  Layer("graph.wal_ms", 1e3 * wal);
  Layer("graph.wal_bytes",
        static_cast<double>(fs::file_size(wal_path_, ec) - wal_before));
  Layer("graph.commit_ms", 1e3 * commit);
  Layer("graph.base_snapshot_ms", 1e3 * rebuild);
  Layer("detect.incdect_ms", 1e3 * inc);
  Layer("detect.delta_added", static_cast<double>(delta.added.size()));
  Layer("detect.delta_removed", static_cast<double>(delta.removed.size()));
  Layer("parallel.pincdect_ms", 1e3 * pinc);
  Layer("parallel.pincdect_messages", static_cast<double>(presult.messages));
  Layer("parallel.pincdect_splits", static_cast<double>(presult.splits));
}

// Layer calls no pass or epoch makes: each is timed on the engine's
// graph once (three times for the loads) in the traced run.
void Measure::Probes() {
  const std::string group = "probe";
  Stage root(tracer_, "run.probe", group);
  for (int k = 0; k < 3; ++k) {
    LoadedGraph g;
    Error e = Load(&g, group, !w_.snapshot_input, false);
    if (!e.empty()) Fail("probe load: " + e);
  }
  std::vector<uint64_t> matches;
  {
    Stage s(tracer_, "match.enumerate", group);
    matches = CountMatches(engine_, rules_);
    Layer("match.enumerate_s", s.Stop());
    double total = 0;
    for (uint64_t c : matches) total += static_cast<double>(c);
    counts_["match.matches"] = total;
  }
  double rule_max = 0, rule_sum = 0;
  std::printf("rule  matches  violations  dect_s\n");
  for (size_t i = 0; i < rules_.size(); ++i) {
    const ngd::NgdSet one(std::vector<ngd::Ngd>{rules_[i]});
    DectConfig cfg;
    cfg.use_base = w_.snapshot_input;
    cfg.spill = spill_;
    Stage s(tracer_, "detect.rule_dect", group);
    const ngd::VioSet vio = Dect(engine_, one, cfg);
    const double t = s.Stop();
    rule_max = std::max(rule_max, t);
    rule_sum += t;
    std::printf("%4zu %8llu %11zu  %.4f\n", i,
                static_cast<unsigned long long>(matches[i]), vio.size(), t);
    RemoveSpill(spill_dir_);
  }
  counts_["detect.rule_max_s"] = rule_max;
  counts_["detect.rule_sum_s"] = rule_sum;
  ngd::Partition part;
  {
    Stage s(tracer_, "parallel.partition", group);
    part = PartitionGraph(engine_, p_);
    Layer("parallel.partition_s", s.Stop());
  }
  {
    Stage s(tracer_, "parallel.fragment_build", group);
    counts_["parallel.halo_nodes"] =
        static_cast<double>(BuildFragments(engine_, part, rules_));
    Layer("parallel.fragment_build_s", s.Stop());
  }
  counts_["parallel.crossing_edges"] =
      static_cast<double>(part.crossing_edges);
}

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(const std::vector<MetricOut>& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.9g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

Error Measure::StartChain(size_t chain) {
  engine_ = LoadedGraph();  // release the previous chain's engine first
  Error e = SetUp(chain, &engine_, &rules_, &minimize_, &journal_);
  running_ = initial_;
  return e;
}

int Measure::Run() {
  Error e = Oracle();
  if (!e.empty()) {
    std::fprintf(stderr, "ngd_perfbench: oracle: %s\n", e.c_str());
    return 1;
  }
  tracer_ = o_.trace ? &trace_store_ : nullptr;
  e = StartChain(0);
  if (!e.empty()) {
    std::fprintf(stderr, "ngd_perfbench: setup: %s\n", e.c_str());
    return 1;
  }
  input_shape_ = Shape(engine_);
  if (!minimize_.minimized) {
    initial_ = oracle_;
  } else {
    DectConfig cfg;
    cfg.use_base = true;
    cfg.minimize_auto = true;
    cfg.spill = spill_;
    const ngd::VioSet vio = Dect(engine_, rules_, cfg);
    e = Drain(vio, &initial_);
    RemoveSpill(spill_dir_);
    if (!e.empty()) {
      std::fprintf(stderr, "ngd_perfbench: initial Vio: %s\n", e.c_str());
      return 1;
    }
  }
  running_ = initial_;
  if (o_.trace) Probes();
  Epoch(0, true);
  // Self-test hook: NGD_FAILPOINTS faults are armed only now, so they
  // land in a measured pass rather than in the oracle.
  ArmFaultsFromEnv();

  // Scheduler. The phases interleave for the whole run, so every metric
  // samples all of it rather than one stretch (on a shared host the
  // speed drifts over seconds).
  //
  // Epochs come in chains of kChain, each on a freshly set-up engine
  // over the input graph, so every epoch sees a graph at most kChain
  // batches away from the input: epoch costs stay stationary instead of
  // following a graph that drifts further the longer a run lasts. The
  // number of epochs is fixed, so every run of a seed does the same
  // epochs whatever the host's speed; they are spread evenly over the
  // run and finish after it on a slower host.
  //
  // The rest of the time goes to audit and parallel audit passes in
  // strict alternation, until the time is up and each kind has
  // kMinPasses samples.
  constexpr size_t kChain = 10;
  constexpr size_t kMinPasses = 5;
  // 100 epochs put epoch_tail_ms at p90; more would push the percentile
  // up to where a one-second stall of the host already moves it.
  const size_t total_epochs = o_.small ? kChain : 10 * kChain;
  size_t epochs = 0;
  size_t passes[2] = {0, 0};  // audit, paudit
  const Clock::time_point start = Clock::now();
  for (;;) {
    const double elapsed = Seconds(Clock::now() - start) / o_.seconds;
    const bool mins_met = passes[0] >= kMinPasses && passes[1] >= kMinPasses;
    const bool epoch_due =
        epochs < total_epochs &&
        (static_cast<double>(epochs) <
             elapsed * static_cast<double>(total_epochs) ||
         (mins_met && elapsed >= 1.0));
    if (!epoch_due && mins_met && elapsed >= 1.0) break;
    // In the traced run the headline alternates traced and untraced
    // iterations: their ratio is trace_overhead.
    if (epoch_due) {
      if (epochs > 0 && epochs % kChain == 0) {
        tracer_ = o_.trace ? &trace_store_ : nullptr;
        e = StartChain(epochs / kChain);
        if (!e.empty()) {
          std::fprintf(stderr, "ngd_perfbench: setup: %s\n", e.c_str());
          return 1;
        }
      }
      tracer_ = o_.trace && (audit_headline_ || epochs % 2 == 1)
                    ? &trace_store_
                    : nullptr;
      Epoch(++epochs, false);
      continue;
    }
    const int kind = passes[0] <= passes[1] ? 0 : 1;
    const bool untraced_headline =
        audit_headline_ && kind == 0 && passes[0] % 2 == 0;
    tracer_ = o_.trace && !untraced_headline ? &trace_store_ : nullptr;
    AuditPass(passes[kind], kind == 1);
    ++passes[kind];
  }
  tracer_ = o_.trace ? &trace_store_ : nullptr;
  Epoch(epochs + 1, true);
  Emit();
  journal_.reset();
  std::error_code ec;
  fs::remove_all(spill_dir_, ec);
  fs::remove(wal_path_, ec);
  return 0;
}

void Measure::Emit() {
  const Workload& w = w_;
  const GraphShape& shape = input_shape_;
  const double error_rate =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;

  // Tail: the highest whole percentile with >= 10 samples beyond it.
  std::vector<double> ep = epoch_ms_;
  std::sort(ep.begin(), ep.end());
  const size_t n = ep.size();
  int tail_pct = n > 10 ? static_cast<int>(100 * (n - 10) / n) : 0;
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(tail_pct / 100.0 * static_cast<double>(n))));
  const double tail = n > 0 ? ep[std::min(rank, n) - 1] : 0.0;

  const double median_dect = Median(layer_["detect.dect_s"]);
  const double median_pdect = Median(layer_["parallel.pdect_s"]);
  const double matches = counts_["match.matches"];

  // The run descriptor, before the result line. epoch_tail_ms and
  // error_rate are reported here rather than in the result: the tail
  // could not be made steady on a shared host (README.md, Steadiness),
  // and the error rate is the result's failed / attempted.
  std::printf(
      "{\"descriptor\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"nodes\": %zu, \"edges\": %zu, \"rules\": %zu, \"violations\": %zu, "
      "\"small\": %s, \"seconds\": %g, \"trace\": %d}, "
      "\"samples\": {\"setup\": %zu, \"audit\": %zu, \"paudit\": %zu, "
      "\"epochs\": %zu}, \"epoch_tail_percentile\": %d, "
      "\"epoch_tail_ms\": {\"value\": %.9g, \"unit\": \"ms\"}, "
      "\"error_rate\": {\"value\": %.6g, \"unit\": \"ratio\"}, "
      "\"failures\": [",
      w.name, static_cast<unsigned long long>(o_.seed), p_,
      NGD_PERFBENCH_COMPILER, NGD_PERFBENCH_BUILD_TYPE, o_.git_sha.c_str(),
      shape.nodes, shape.edges, rules_.size(), violations_,
      o_.small ? "true" : "false", o_.seconds, o_.trace ? 1 : 0,
      setup_s_.size(), audit_s_.size(), paudit_s_.size(), n, tail_pct, tail,
      error_rate);
  for (size_t i = 0; i < failures_.size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? ", " : "", failures_[i].c_str());
  }
  std::printf("]}\n");

  std::vector<MetricOut> m;
  if (!o_.trace) {
    m = {
        {"setup_s", Median(setup_s_), "s"},
        {"audit_s", Median(audit_s_), "s"},
        {"paudit_s", Median(paudit_s_), "s"},
        {"epoch_p50_ms", Median(epoch_ms_), "ms"},
        {"pepoch_p50_ms", Median(pepoch_ms_), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    auto med = [&](const char* name) { return Median(layer_[name]); };
    m = {
        {"core.parse_rules_s", med("core.parse_rules_s"), "s"},
        {"graph.snapshot_load_s", med("graph.snapshot_load_s"), "s"},
        {"graph.materialize_s", med("graph.materialize_s"), "s"},
        {"graph.tsv_parse_s", med("graph.tsv_parse_s"), "s"},
        {"graph.apply_ms", med("graph.apply_ms"), "ms"},
        {"graph.commit_ms", med("graph.commit_ms"), "ms"},
        {"graph.base_snapshot_ms", med("graph.base_snapshot_ms"), "ms"},
        {"graph.delta_view_ms", med("graph.delta_view_ms"), "ms"},
        {"graph.wal_ms", med("graph.wal_ms"), "ms"},
        {"graph.wal_bytes", med("graph.wal_bytes"), "bytes"},
        {"reason.minimize_s", med("reason.minimize_s"), "s"},
        {"reason.rules_kept", static_cast<double>(minimize_.kept), "count"},
        {"reason.rules_dropped", static_cast<double>(minimize_.dropped),
         "count"},
        {"reason.implication_checks",
         static_cast<double>(minimize_.implication_checks), "count"},
        {"reason.unknown", static_cast<double>(minimize_.unknown), "count"},
        {"match.matches", matches, "count"},
        {"match.enumerate_s", med("match.enumerate_s"), "s"},
        {"detect.dect_s", median_dect, "s"},
        {"detect.drain_s", med("detect.drain_s"), "s"},
        {"detect.rule_max_s", counts_["detect.rule_max_s"], "s"},
        {"detect.rule_sum_s", counts_["detect.rule_sum_s"], "s"},
        {"detect.violations", static_cast<double>(violations_), "count"},
        {"detect.violation_ratio",
         matches > 0 ? static_cast<double>(violations_) / matches : 0.0,
         "ratio"},
        {"detect.spill_segments", med("detect.spill_segments"), "count"},
        {"detect.spilled_records", med("detect.spilled_records"), "count"},
        {"detect.peak_resident_bytes", med("detect.peak_resident_bytes"),
         "bytes"},
        {"detect.incdect_ms", med("detect.incdect_ms"), "ms"},
        {"detect.pivot_tasks", med("detect.pivot_tasks"), "count"},
        {"detect.delta_added", med("detect.delta_added"), "count"},
        {"detect.delta_removed", med("detect.delta_removed"), "count"},
        {"parallel.partition_s", med("parallel.partition_s"), "s"},
        {"parallel.fragment_build_s", med("parallel.fragment_build_s"), "s"},
        {"parallel.crossing_edges", counts_["parallel.crossing_edges"],
         "count"},
        {"parallel.halo_nodes", counts_["parallel.halo_nodes"], "count"},
        {"parallel.pdect_s", median_pdect, "s"},
        {"parallel.pdect_cpu_s", med("parallel.pdect_cpu_s"), "s"},
        {"parallel.speedup",
         median_pdect > 0 ? median_dect / median_pdect : 0.0,
         "ratio"},
        {"parallel.messages", med("parallel.messages"), "count"},
        {"parallel.steals", med("parallel.steals"), "count"},
        {"parallel.forwards", med("parallel.forwards"), "count"},
        {"parallel.splits", med("parallel.splits"), "count"},
        {"parallel.work_units", med("parallel.work_units"), "count"},
        {"parallel.inline_runs", med("parallel.inline_runs"), "count"},
        {"parallel.peak_queue_depth", med("parallel.peak_queue_depth"),
         "count"},
        {"parallel.pincdect_ms", med("parallel.pincdect_ms"), "ms"},
        {"parallel.pincdect_messages", med("parallel.pincdect_messages"),
         "count"},
        {"parallel.pincdect_splits", med("parallel.pincdect_splits"), "count"},
        {"trace_overhead",
         Median(untraced_headline_) > 0
             ? Median(traced_headline_) / Median(untraced_headline_)
             : 0.0,
         "ratio"},
    };
    if (!o_.trace_dir.empty()) {
      std::error_code ec;
      fs::create_directories(o_.trace_dir, ec);
      const std::string stem = o_.trace_dir + "/" + w.name + "-" +
                               std::to_string(o_.seed);
      trace_store_.WriteChromeTrace(stem + ".trace.json");
      std::ofstream table(stem + ".selftime.txt");
      table << trace_store_.SelfTimeTable();
      std::printf("trace: %s.trace.json, self time: %s.selftime.txt\n",
                  stem.c_str(), stem.c_str());
    }
    std::printf("%s", trace_store_.SelfTimeTable().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false", attempted_, failed_,
              Json(m).c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string err;
  if (!ParseArgs(argc, argv, &o, &err)) {
    std::fprintf(stderr, "ngd_perfbench: %s\n", err.c_str());
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "ngd_perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  const Workload w = Scaled(*found, o.small);
  if (o.command == "generate") return Generate(o, w);
  if (o.command != "measure") {
    std::fprintf(stderr, "ngd_perfbench: unknown command '%s'\n",
                 o.command.c_str());
    return 2;
  }
  Measure m(o, w);
  return m.Run();
}
