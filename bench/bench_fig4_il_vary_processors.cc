// Fig. 4(i)–(l): parallel scalability with the number of processors p
// (Exp-4), |ΔG| = 15%, on all four graph families.
//
// Paper: p from 4 to 20 machines; PIncDect/PDect get ~3.7x faster from
// p=4 to p=20, PIncDect consistently beats PDect and the ablation
// variants. PDect here is the fragment-native engine: each p gets a
// pre-built FragmentRuntime (LDG partition + per-fragment CSRs + d_Σ-hop
// halos) cached OUTSIDE the timed region, the amortized per-epoch cost,
// so the curve times steady-state detection only. This host has 2
// physical cores: the wall-clock curve saturates beyond p=2 (documented
// in EXPERIMENTS.md), so the shape check reports both wall-clock and the
// work-distribution metrics that keep scaling (splits, balanced moves,
// cross-fragment messages).

#include <map>
#include <memory>
#include <thread>

#include "bench_common.h"

namespace {

using ngd::bench::CachedWorkload;
using ngd::bench::MakeBatch;
using ngd::bench::RegisterTimed;
using ngd::bench::RunIncDect;
using ngd::bench::RunPDect;
using ngd::bench::RunPIncDect;
using ngd::bench::TimingStore;
using ngd::bench::VariantOptions;
using ngd::bench::Workload;
using ngd::bench::WorkloadSpec;

constexpr int kProcessors[] = {1, 2, 4, 8};
constexpr double kFraction = 0.15;

struct GraphCase {
  const char* name;
  char panel;
};
const GraphCase kGraphs[] = {
    {"dbpedia-like", 'i'},
    {"yago2-like", 'j'},
    {"pokec-like", 'k'},
    {"synthetic", 'l'},
};

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec spec;
  if (name == "dbpedia-like") {
    spec.graph_config = ngd::DBpediaLikeConfig(1.0 / 1000);
  } else if (name == "yago2-like") {
    spec.graph_config = ngd::Yago2LikeConfig(1.0 / 500);
  } else if (name == "pokec-like") {
    spec.graph_config = ngd::PokecLikeConfig(1.0 / 1000);
  } else {
    spec.graph_config = ngd::SyntheticConfig(12000, 18000);
  }
  spec.num_rules = 15;
  spec.max_diameter = 3;
  return spec;
}

std::string Key(const GraphCase& gc, const char* algo, int p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "Fig4%c/%s/%s/p=%d", gc.panel, gc.name,
                algo, p);
  return buf;
}

// Per-(graph, p) FragmentRuntime, built once against the overlaid graph
// and reused across repetitions — the per-epoch cost a deployment
// amortizes, never part of the timed region.
const ngd::FragmentRuntime& CachedRuntime(const GraphCase& gc, Workload& w,
                                          int p) {
  static std::map<std::string, std::unique_ptr<ngd::FragmentRuntime>> cache;
  const std::string key = std::string(gc.name) + "/p=" + std::to_string(p);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, std::make_unique<ngd::FragmentRuntime>(
                               *w.graph, p, ngd::GraphView::kNew,
                               w.sigma.MaxDiameter()))
             .first;
  }
  return *it->second;
}

// Cross-fragment messages observed for the fragment PDect runs, keyed
// like TimingStore (metrics are counters, not seconds, so they live here).
std::map<std::string, uint64_t>& PDectMessages() {
  static std::map<std::string, uint64_t> m;
  return m;
}

void RegisterAll() {
  for (const GraphCase& gc : kGraphs) {
    // Sequential baseline for the relative-scalability statement.
    RegisterTimed(Key(gc, "IncDect", 1), [gc]() {
      Workload& w = CachedWorkload(gc.name, SpecFor(gc.name));
      ngd::UpdateBatch batch = MakeBatch(w.graph.get(), kFraction, 55);
      if (!ngd::ApplyUpdateBatch(w.graph.get(), &batch).ok()) std::abort();
      double s = RunIncDect(w, batch);
      w.graph->Rollback();
      return s;
    });
    for (int p : kProcessors) {
      auto with_batch = [gc](auto run) {
        return [gc, run]() {
          Workload& w = CachedWorkload(gc.name, SpecFor(gc.name));
          ngd::UpdateBatch batch = MakeBatch(w.graph.get(), kFraction, 55);
          if (!ngd::ApplyUpdateBatch(w.graph.get(), &batch).ok()) {
            std::abort();
          }
          double s = run(w, batch);
          w.graph->Rollback();
          return s;
        };
      };
      RegisterTimed(
          Key(gc, "PDect", p),
          with_batch([gc, p](Workload& w, const ngd::UpdateBatch&) {
            const ngd::FragmentRuntime& rt = CachedRuntime(gc, w, p);
            ngd::ClusterMetricsSnapshot metrics;
            double s = RunPDect(w, p, &rt, &metrics);
            PDectMessages()[Key(gc, "PDect", p)] = metrics.messages;
            return s;
          }));
      for (const char* variant :
           {"PIncDect", "PIncDect_ns", "PIncDect_nb", "PIncDect_NO"}) {
        RegisterTimed(
            Key(gc, variant, p),
            with_batch([p, variant](Workload& w, const ngd::UpdateBatch& b) {
              return RunPIncDect(w, b, VariantOptions(variant, p));
            }));
      }
    }
  }
}

void PrintShapeCheck() {
  TimingStore& store = TimingStore::Instance();
  std::printf("\n=== SHAPE CHECK vs paper Fig 4(i)-(l) ===\n");
  for (const GraphCase& gc : kGraphs) {
    double p1 = store.Get(Key(gc, "PIncDect", 1));
    double p2 = store.Get(Key(gc, "PIncDect", 2));
    double rel = store.Speedup(Key(gc, "IncDect", 1), Key(gc, "PIncDect", 2));
    std::printf("  [%s] PIncDect p=1->2: %.2fx; vs sequential IncDect at "
                "p=2: %.2fx (host has %u cores; paper scales to 20 "
                "machines)\n",
                gc.name, p2 > 0 ? p1 / p2 : -1.0, rel,
                std::thread::hardware_concurrency());
    double d1 = store.Get(Key(gc, "PDect", 1));
    double d8 = store.Get(Key(gc, "PDect", 8));
    std::printf("  [%s] fragment PDect p=1->8: %.2fx wall clock; "
                "cross-fragment messages p=1: %llu, p=8: %llu\n",
                gc.name, d8 > 0 ? d1 / d8 : -1.0,
                static_cast<unsigned long long>(
                    PDectMessages()[Key(gc, "PDect", 1)]),
                static_cast<unsigned long long>(
                    PDectMessages()[Key(gc, "PDect", 8)]));
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  PrintShapeCheck();
  return 0;
}
