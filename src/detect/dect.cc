#include "detect/dect.h"

#include <optional>

namespace ngd {

namespace {

/// Runs one detection sweep over every rule in Σ against one search
/// backend: opts.snapshot when given, else a CSR snapshot built here when
/// opts.snapshot_mode resolves to one (ResolveSnapshot), else the live
/// graph. The start node and MatchPlan are hoisted out of the candidate
/// loop: one plan per rule per detection call, shared across all of that
/// rule's seed candidates (and, via the snapshot, across all rules of the
/// call).
///
/// Emission has two modes:
///   - `sink != nullptr` (Dect): full matches stream straight into the
///     sink through a per-rule VioEmitter — batched block appends, no
///     std::function dispatch, no per-match allocation and no per-match
///     dedup (batch enumeration emits each binding exactly once per
///     rule). opts.max_violations_per_ngd caps emissions per NGD (0 =
///     unlimited), matching the old callback-counting semantics.
///   - `sink == nullptr` (FindAnyViolation): `callback` receives each
///     violation; returning false ends that rule's search and — with
///     `stop_sweep_on_false` — the whole sweep (first-witness exit).
///
/// opts.cancel / opts.deadline are polled between rules and inside the
/// expansion loops; a trip marks the interrupted rule and every rule
/// after it incomplete in the run info and sets its `truncated`.
template <typename PerViolation>
void SweepRules(const Graph& g, const NgdSet& sigma, const DectOptions& opts,
                bool stop_sweep_on_false, VioSet* sink,
                const PerViolation& callback) {
  std::optional<GraphSnapshot> owned_snap;
  const GraphSnapshot* snap = opts.snapshot;
  if (snap == nullptr &&
      ResolveSnapshot(g, sigma, opts.snapshot_mode, opts.view)) {
    snap = &owned_snap.emplace(g, opts.view);
  }
  DetectRunInfo local_info;
  DetectRunInfo* info = opts.run_info != nullptr ? opts.run_info : &local_info;
  info->StartFull(sigma.size());
  CancelCheck check(opts.cancel, opts.deadline);
  CancelCheck* cancel = check.active() ? &check : nullptr;

  auto mark_truncated_from = [&](size_t f) {
    info->truncated = true;
    for (size_t r = f; r < sigma.size(); ++r) info->rule_completed[r] = 0;
  };
  for (size_t f = 0; f < sigma.size(); ++f) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      mark_truncated_from(f);
      return;
    }
    const Ngd& ngd = sigma[f];
    SearchConfig cfg;
    cfg.graph = &g;
    cfg.snapshot = snap;
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.view = opts.view;
    cfg.find_violations = true;
    cfg.cancel = cancel;
    std::optional<VioEmitter> emitter;
    if (sink != nullptr) {
      emitter.emplace(sink, static_cast<int>(f), ngd.pattern().NumNodes(),
                      opts.max_violations_per_ngd);
      cfg.emitter = &*emitter;
    }
    const int start = ChooseStartNode(ngd.pattern(), cfg.MakeAccessor());
    const MatchPlan plan =
        BuildMatchPlan(ngd.pattern(), {start}, &ngd.X(), &ngd.Y());
    const bool completed = RunBatchSearchWithPlan(
        cfg, start, plan, [&](const Binding& binding) {
          return callback(static_cast<int>(f), binding);
        });
    if (emitter.has_value()) emitter->Flush();
    if (cancel != nullptr && cancel->Stopped()) {
      // Cancel/deadline stop, not a callback/limit stop: rule f is
      // incomplete.
      mark_truncated_from(f);
      return;
    }
    if (!completed && stop_sweep_on_false) return;
  }
}

}  // namespace

void RemapRunInfo(const DetectRunInfo& inner, const OptimizeReport& report,
                  size_t original_rules, DetectRunInfo* out) {
  out->truncated = inner.truncated;
  // Kept rules copy their marks from the minimized run.
  std::vector<int8_t> mark(original_rules, -1);  // -1 unresolved, 0/1 known
  for (size_t i = 0; i < report.kept.size(); ++i) {
    const size_t orig = static_cast<size_t>(report.kept[i]);
    mark[orig] = i < inner.rule_completed.size() && inner.rule_completed[i]
                     ? 1
                     : (inner.truncated ? 0 : 1);
  }
  // Dropped rules propagate completion through the implication cover:
  // rule d's violations are covered by the rules that implied it, so d's
  // report is complete exactly when every (transitive) implier finished
  // enumerating. The implied_by edges always point to rules that were
  // alive at drop time, so the relation is a DAG rooted at kept rules.
  const bool have_cover = report.implied_by.size() == original_rules;
  std::vector<int> stack;
  for (int d : report.dropped) {
    if (mark[static_cast<size_t>(d)] != -1) continue;
    if (!have_cover || report.implied_by[static_cast<size_t>(d)].empty()) {
      // No recorded cover (defensive): fall back to the conservative
      // whole-run mark.
      mark[static_cast<size_t>(d)] = inner.truncated ? 0 : 1;
      continue;
    }
    stack.push_back(d);
    while (!stack.empty()) {
      const size_t r = static_cast<size_t>(stack.back());
      bool ready = true;
      bool all_complete = true;
      for (int j : report.implied_by[r]) {
        const int8_t m = mark[static_cast<size_t>(j)];
        if (m == -1) {
          if (!have_cover || report.implied_by[static_cast<size_t>(j)].empty()) {
            mark[static_cast<size_t>(j)] = inner.truncated ? 0 : 1;
            if (mark[static_cast<size_t>(j)] == 0) all_complete = false;
            continue;
          }
          stack.push_back(j);
          ready = false;
        } else if (m == 0) {
          all_complete = false;
        }
      }
      if (!ready) continue;
      mark[r] = all_complete ? 1 : 0;
      stack.pop_back();
    }
  }
  out->rule_completed.assign(original_rules, 0);
  for (size_t r = 0; r < original_rules; ++r) {
    out->rule_completed[r] = mark[r] == 1 ? 1 : 0;
  }
}

bool WantSnapshot(const Graph& g, const NgdSet& sigma, GraphView view) {
  // The edge guard and seed counting agree on the view being detected: a
  // graph whose edges are all pending in the OTHER view must not pay a
  // build for an edge-empty snapshot.
  if (g.NumEdges(view) == 0) return false;
  // Σ_f |C(start_f)| approximates how many seed expansions the sweep
  // performs; each streams an adjacency of average length 2|E|/|V|, while
  // the snapshot build streams the adjacency a constant number of times
  // with a sort-like constant. Seed volume ≥ 8|V| ⇒ the live engine would
  // touch well over an order of magnitude more entries than the build, so
  // the snapshot amortizes within this call.
  const GraphAccessor acc(g, view);
  size_t seed_candidates = 0;
  const size_t threshold = 8 * g.NumNodes();
  for (size_t f = 0; f < sigma.size(); ++f) {
    const Pattern& pattern = sigma[f].pattern();
    seed_candidates += acc.CandidateCount(
        pattern.node(ChooseStartNode(pattern, acc)).label);
    if (seed_candidates >= threshold) return true;
  }
  return false;
}

bool ResolveSnapshot(const Graph& g, const NgdSet& sigma, SnapshotMode mode,
                     GraphView view) {
  switch (mode) {
    case SnapshotMode::kAlways:
      return true;
    case SnapshotMode::kNever:
      return false;
    case SnapshotMode::kAuto:
      break;
  }
  return WantSnapshot(g, sigma, view);
}

VioSet Dect(const Graph& g, const NgdSet& sigma, const DectOptions& opts) {
  // Σ-optimizer wiring: detect against the implication-minimized rule set
  // and remap rule indices back to the caller's Σ. One re-entry, with the
  // mode cleared, keeps the engine body oblivious to minimization.
  DectOptions inner;
  MinimizedSigma m;
  if (BeginMinimizedDetection(sigma, g.schema(), opts, &inner, &m)) {
    DetectRunInfo inner_info;
    inner.run_info = &inner_info;
    VioSet vio = RemapViolations(Dect(g, m.sigma, inner), m.report.kept);
    if (opts.run_info != nullptr) {
      RemapRunInfo(inner_info, m.report, sigma.size(), opts.run_info);
    }
    return vio;
  }

  VioSet vio;
  if (opts.spill != nullptr) vio.EnableSpill(*opts.spill);
  SweepRules(g, sigma, opts, /*stop_sweep_on_false=*/false, &vio,
             [](int, const Binding&) { return true; });
  return vio;
}

std::optional<Violation> FindAnyViolation(const Graph& g, const NgdSet& sigma,
                                          const DectOptions& opts) {
  // Minimization preserves emptiness (a dropped rule's violation always
  // comes with a kept rule's violation), so validation may sweep the kept
  // rules only; the witness index is remapped back to the caller's Σ.
  DectOptions inner;
  MinimizedSigma m;
  if (BeginMinimizedDetection(sigma, g.schema(), opts, &inner, &m)) {
    DetectRunInfo inner_info;
    inner.run_info = &inner_info;
    std::optional<Violation> witness = FindAnyViolation(g, m.sigma, inner);
    if (witness.has_value()) {
      witness->ngd_index =
          m.report.kept[static_cast<size_t>(witness->ngd_index)];
    }
    if (opts.run_info != nullptr) {
      RemapRunInfo(inner_info, m.report, sigma.size(), opts.run_info);
    }
    return witness;
  }

  // Worst case (G |= Σ, the common validation outcome) is a full sweep,
  // so the same kAuto cost model applies as for Dect; callers who know
  // violations are common pass kNever to skip the O(|E|) build an early
  // witness would waste.
  std::optional<Violation> witness;
  SweepRules(g, sigma, opts, /*stop_sweep_on_false=*/true, /*sink=*/nullptr,
             [&](int f, const Binding& binding) {
               witness = Violation{f, binding};
               return false;  // stop at first violation
             });
  return witness;
}

}  // namespace ngd
