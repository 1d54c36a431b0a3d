// The arena-backed VioSet must be observationally identical to the
// unordered_set<Violation> layout it replaced. Three layers of evidence:
//
//   1. unit semantics — every public operation (Add / AppendUnchecked /
//      Contains / Merge / MergeDisjointUnchecked / Remove / Sorted /
//      ApplyDelta / RemapNgdIndices) fuzzed against a reference model
//      built on std::unordered_set<Violation, ViolationHash>, the exact
//      previous implementation;
//   2. hash quality — a bucket-distribution regression for ViolationHash
//      on the structured tuple families (ngd_index 0, sequential and
//      strided node ids) where the previous ad-hoc mix degenerated;
//   3. engine differential — a randomized sweep running all four
//      detection engines and requiring byte-identical Sorted() output
//      and ApplyDelta round-trips, so the unchecked emission paths
//      (VioEmitter, AppendUnchecked, MergeDisjointUnchecked) are held to
//      exact set semantics end to end.
//
// The sweep is sized by NGD_VIO_CASES (sanitizer CI shrinks it); a
// failure reproduces from the printed seed via NGD_VIO_SEED.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "detect/violation.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

size_t CaseCount() {
  const char* env = std::getenv("NGD_VIO_CASES");
  if (env != nullptr) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 150;
}

Violation V(int f, std::vector<NodeId> nodes) {
  return Violation{f, std::move(nodes)};
}

/// The previous VioSet storage, kept as the reference model.
using LegacyModel = std::unordered_set<Violation, ViolationHash>;

std::vector<Violation> SortedOf(const LegacyModel& m) {
  std::vector<Violation> out(m.begin(), m.end());
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.ngd_index != b.ngd_index) return a.ngd_index < b.ngd_index;
              return a.nodes < b.nodes;
            });
  return out;
}

void ExpectSameSorted(const std::vector<Violation>& want,
                      const std::vector<Violation>& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(want[i] == got[i])
        << what << ": Sorted()[" << i << "] differs (rule " << want[i].ngd_index
        << " vs " << got[i].ngd_index << ")";
  }
}

// ---- 2. hash quality -----------------------------------------------------

/// Buckets `tuples` into a power-of-two table at load factor 1/2 (the
/// VioSet table shape) and checks the occupancy doesn't collapse: the
/// previous mix sent strided single-node families with ngd_index == 0
/// into O(stride) distinct buckets.
void ExpectWellSpread(const std::vector<Violation>& tuples,
                      const char* family) {
  ViolationHash hash;
  size_t table = 16;
  while (table < tuples.size() * 2) table <<= 1;
  const size_t mask = table - 1;
  std::vector<uint32_t> load(table, 0);
  for (const Violation& v : tuples) ++load[hash(v) & mask];
  size_t distinct = 0;
  uint32_t max_load = 0;
  for (uint32_t l : load) {
    distinct += l > 0 ? 1 : 0;
    max_load = std::max(max_load, l);
  }
  // An ideal hash at load 1/2 fills ~39% of buckets (1 - e^-0.5) with a
  // max load well under 10; the degenerate mix left >90% of buckets
  // empty on these families. The thresholds sit between the two.
  EXPECT_GT(distinct, tuples.size() / 4) << family;
  EXPECT_LT(max_load, 16u) << family;
}

TEST(ViolationHashTest, SpreadsStructuredTupleFamilies) {
  constexpr size_t kN = 4096;
  std::vector<Violation> sequential, strided, pairs, hub;
  for (size_t i = 0; i < kN; ++i) {
    const NodeId n = static_cast<NodeId>(i);
    sequential.push_back(V(0, {n}));
    strided.push_back(V(0, {static_cast<NodeId>(i * 64)}));
    pairs.push_back(V(0, {n, n + 1}));
    // Hub-sweep shape: one shared hub, spokes sequential — the
    // violation-heavy benchmark's dominant family.
    hub.push_back(V(0, {7, n, 7, n + 1}));
  }
  ExpectWellSpread(sequential, "sequential single-node, ngd 0");
  ExpectWellSpread(strided, "strided single-node, ngd 0");
  ExpectWellSpread(pairs, "sequential pairs, ngd 0");
  ExpectWellSpread(hub, "hub 4-tuples, ngd 0");
}

// ---- 1. unit semantics vs the legacy model -------------------------------

TEST(VioSetTest, FuzzMatchesLegacyModel) {
  Rng rng(20260808);
  for (int round = 0; round < 40; ++round) {
    VioSet set;
    LegacyModel model;
    // Small universe so collisions, repeats and removals are common;
    // tuple lengths straddle the inline/spill boundary (4).
    auto random_vio = [&] {
      const int f = static_cast<int>(rng.UniformInt(0, 3));
      const size_t len = static_cast<size_t>(rng.UniformInt(1, 6));
      std::vector<NodeId> nodes(len);
      for (NodeId& n : nodes) {
        n = static_cast<NodeId>(rng.UniformInt(0, 11));
      }
      return V(f, std::move(nodes));
    };
    const int ops = 300;
    for (int op = 0; op < ops; ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind < 5) {  // checked insert
        const Violation v = random_vio();
        EXPECT_EQ(model.insert(v).second, set.Add(v));
      } else if (kind < 7) {  // unchecked append of a verified-new tuple
        const Violation v = random_vio();
        if (model.insert(v).second) {
          set.AppendUnchecked(v.ngd_index, v.nodes.data(), v.nodes.size());
        }
      } else if (kind == 7) {  // membership probe
        const Violation v = random_vio();
        EXPECT_EQ(model.count(v) > 0, set.Contains(v));
      } else if (kind == 8) {  // remove a random batch
        VioSet victim;
        for (int k = 0; k < 5; ++k) victim.Add(random_vio());
        for (const Violation& v : victim.items()) model.erase(v);
        set.Remove(victim);
      } else {  // merge a random batch (checked union)
        VioSet other;
        for (int k = 0; k < 8; ++k) {
          const Violation v = random_vio();
          other.Add(v);
        }
        for (const Violation& v : other.items()) model.insert(v);
        set.Merge(std::move(other));
      }
      EXPECT_EQ(model.size(), set.size()) << "round " << round << " op " << op;
    }
    ExpectSameSorted(SortedOf(model), set.Sorted(), "fuzz round end");
    // items() agrees with Sorted() on the same live records.
    size_t seen = 0;
    for (const Violation& v : set.items()) {
      EXPECT_TRUE(model.count(v) > 0);
      ++seen;
    }
    EXPECT_EQ(model.size(), seen);
  }
}

TEST(VioSetTest, UncheckedDuplicatesAreRepairedByIndexedOps) {
  VioSet set;
  // Contract breach on purpose: the same tuple appended unchecked twice
  // may be visible until the next indexed operation repairs it.
  const Violation v = V(2, {5, 6, 7, 8, 9});  // spilled (len > 4)
  set.AppendUnchecked(v.ngd_index, v.nodes.data(), v.nodes.size());
  set.AppendUnchecked(v.ngd_index, v.nodes.data(), v.nodes.size());
  set.AppendUnchecked(0, v.nodes.data(), 2);
  EXPECT_TRUE(set.Contains(v));  // indexed op triggers the batched repair
  EXPECT_EQ(2u, set.size());
  EXPECT_EQ(2u, set.Sorted().size());
  EXPECT_FALSE(set.Add(v));  // still a member, exactly once
  EXPECT_EQ(2u, set.size());
}

TEST(VioSetTest, RemoveThenReAddRevives) {
  VioSet set;
  const Violation v = V(1, {3, 4});
  EXPECT_TRUE(set.Add(v));
  VioSet victim;
  victim.Add(v);
  set.Remove(victim);
  EXPECT_FALSE(set.Contains(v));
  EXPECT_EQ(0u, set.size());
  EXPECT_TRUE(set.Add(v));
  EXPECT_TRUE(set.Contains(v));
  EXPECT_EQ(1u, set.size());
  EXPECT_EQ(1u, set.Sorted().size());
}

TEST(VioSetTest, RemoveThenUncheckedReAppendSurvivesIndexCatchUp) {
  // Regression: the remove leaves a dead-but-tabled record equal to the
  // re-appended tuple; the index catch-up must treat the new live record
  // as superseding it, not repair it away as a duplicate.
  VioSet set;
  const Violation v = V(1, {3, 4});
  ASSERT_TRUE(set.Add(v));
  VioSet victim;
  victim.Add(v);
  set.Remove(victim);
  ASSERT_EQ(0u, set.size());
  set.AppendUnchecked(v.ngd_index, v.nodes.data(), v.nodes.size());
  EXPECT_EQ(1u, set.size());
  EXPECT_TRUE(set.Contains(v));  // indexed op triggers the catch-up
  EXPECT_EQ(1u, set.size());
  EXPECT_FALSE(set.Add(v));
  EXPECT_EQ(1u, set.size());
  EXPECT_EQ(1u, set.Sorted().size());
  // And the same removal works a second time around.
  set.Remove(victim);
  EXPECT_FALSE(set.Contains(v));
  EXPECT_EQ(0u, set.size());
}

TEST(VioSetTest, IteratorsFromDifferentSetsNeverCompareEqual) {
  // Regression: operator== compared only the record index, so begin() of
  // two distinct sets (both index 0) compared equal — a range-for over
  // one set could terminate against another's end().
  VioSet a, b;
  a.Add(V(0, {1}));
  b.Add(V(0, {1}));
  EXPECT_FALSE(a.items().begin() == b.items().begin());
  EXPECT_TRUE(a.items().begin() != b.items().begin());
  EXPECT_TRUE(a.items().begin() == a.items().begin());
  EXPECT_FALSE(a.items().begin() == a.items().end());
}

TEST(VioSetTest, MergeDisjointRebasesSpilledTuples) {
  VioSet a, b;
  LegacyModel model;
  // Both sides hold spilled tuples so the arena offset rebase is load-
  // bearing, plus inline ones for the union shape.
  for (NodeId n = 0; n < 20; ++n) {
    const Violation longer = V(0, {n, n, n, n, n, n});
    const Violation shorter = V(1, {n});
    (n % 2 == 0 ? a : b).Add(longer);
    (n % 2 == 0 ? a : b).Add(shorter);
    model.insert(longer);
    model.insert(shorter);
  }
  a.MergeDisjointUnchecked(std::move(b));
  EXPECT_EQ(model.size(), a.size());
  ExpectSameSorted(SortedOf(model), a.Sorted(), "disjoint merge");
  for (const Violation& v : SortedOf(model)) EXPECT_TRUE(a.Contains(v));
}

TEST(VioSetTest, MergeIntoEmptyMovesWholesale) {
  VioSet a, b;
  b.Add(V(0, {1, 2, 3, 4, 5}));
  b.Add(V(3, {9}));
  a.MergeDisjointUnchecked(std::move(b));
  EXPECT_EQ(2u, a.size());
  VioSet c, d;
  d.Add(V(1, {4}));
  c.Merge(std::move(d));
  EXPECT_EQ(1u, c.size());
  EXPECT_TRUE(c.Contains(V(1, {4})));
}

TEST(VioSetTest, RemapNgdIndicesPreservesTuples) {
  VioSet set;
  set.Add(V(0, {1}));
  set.Add(V(1, {2, 3, 4, 5, 6}));
  set.Add(V(2, {7, 8}));
  set.RemapNgdIndices({2, 5, 9});
  const std::vector<Violation> got = set.Sorted();
  ASSERT_EQ(3u, got.size());
  EXPECT_TRUE(got[0] == V(2, {1}));
  EXPECT_TRUE(got[1] == V(5, {2, 3, 4, 5, 6}));
  EXPECT_TRUE(got[2] == V(9, {7, 8}));
  EXPECT_TRUE(set.Contains(V(5, {2, 3, 4, 5, 6})));  // index rebuilt lazily
  EXPECT_FALSE(set.Contains(V(1, {2, 3, 4, 5, 6})));
}

TEST(VioSetTest, EmitterFlushesBlocksAndHonorsLimit) {
  for (const size_t tuple_len : {3u, 6u}) {  // inline and spilled
    VioSet batched, checked;
    {
      VioEmitter em(&batched, 4, tuple_len);
      Binding b(tuple_len);
      for (NodeId n = 0; n < 1000; ++n) {  // crosses several flush blocks
        for (size_t k = 0; k < tuple_len; ++k) {
          b[k] = n + static_cast<NodeId>(k);
        }
        EXPECT_TRUE(em.Emit(b));
        checked.Add(V(4, b));
      }
      EXPECT_EQ(1000u, em.emitted());
    }  // destructor flushes the tail block
    EXPECT_EQ(checked.size(), batched.size());
    ExpectSameSorted(checked.Sorted(), batched.Sorted(), "emitter");
  }
  // The limit mirrors the old max_violations_per_ngd callback counting:
  // the Nth emission is recorded and returns false (stop enumerating).
  VioSet out;
  VioEmitter em(&out, 0, 1, /*limit=*/3);
  Binding b(1);
  b[0] = 1;
  EXPECT_TRUE(em.Emit(b));
  b[0] = 2;
  EXPECT_TRUE(em.Emit(b));
  b[0] = 3;
  EXPECT_FALSE(em.Emit(b));
  em.Flush();
  EXPECT_EQ(3u, out.size());
}

TEST(VioSetTest, ApplyDeltaMatchesLegacySemantics) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    VioSet base;
    DeltaVio delta;
    LegacyModel model;
    for (int k = 0; k < 40; ++k) {
      std::vector<NodeId> nodes(static_cast<size_t>(rng.UniformInt(1, 5)));
      for (NodeId& n : nodes) n = static_cast<NodeId>(rng.UniformInt(0, 9));
      const Violation v = V(static_cast<int>(rng.UniformInt(0, 2)),
                            std::move(nodes));
      const int where = static_cast<int>(rng.UniformInt(0, 3));
      if (where == 0) {
        base.Add(v);
      } else if (where == 1) {
        delta.added.Add(v);
      } else if (where == 2) {
        delta.removed.Add(v);
      } else {  // in base AND removed — the must-disappear shape
        base.Add(v);
        delta.removed.Add(v);
      }
    }
    for (const Violation& v : base.items()) {
      if (!delta.removed.Contains(v)) model.insert(v);
    }
    for (const Violation& v : delta.added.items()) model.insert(v);
    ExpectSameSorted(SortedOf(model), ApplyDelta(base, delta).Sorted(),
                     "ApplyDelta");
  }
}

// ---- 3. engine differential ----------------------------------------------

/// One randomized case: all four engines over one (graph, Σ, ΔG)
/// workload, every result compared by byte-identical Sorted() against
/// the kNever sequential oracle (checked-insert path) and the ΔVio
/// round-trip checked through ApplyDelta.
void RunEngineCase(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  testing_util::RandomWorkload w =
      testing_util::MakeRandomWorkload(seed, &rng);
  std::ostringstream repro_os;
  repro_os << "repro: NGD_VIO_SEED=" << seed << " (nodes=" << w.nodes
           << " edges=" << w.edges << ")";
  const std::string repro = repro_os.str();
  if (w.sigma.empty()) return;

  // Oracle: sequential live engine. Its emission runs through VioEmitter
  // too, so cross-check it against a checked-insert rebuild first: any
  // duplicate leaked by the unchecked block appends would shrink it.
  DectOptions live;
  live.snapshot_mode = SnapshotMode::kNever;
  const VioSet before = Dect(*w.graph, w.sigma, live);
  VioSet rebuilt;
  for (const Violation& v : before.items()) {
    EXPECT_TRUE(rebuilt.Add(v)) << repro << ": duplicate in Dect output";
  }
  EXPECT_EQ(rebuilt.size(), before.size()) << repro;
  const std::vector<Violation> want = before.Sorted();

  {
    DectOptions o;
    o.snapshot_mode = SnapshotMode::kAlways;
    ExpectSameSorted(want, Dect(*w.graph, w.sigma, o).Sorted(),
                     repro + " snapshot Dect");
  }
  {
    PDectOptions o;
    o.num_processors = static_cast<int>(rng.UniformInt(2, 4));
    ExpectSameSorted(want, PDect(*w.graph, w.sigma, o).vio.Sorted(),
                     repro + " PDect");
  }

  if (!ValidateForIncremental(w.sigma).ok()) return;
  UpdateGenOptions up;
  up.fraction = 0.2;
  up.insert_fraction = 0.5;
  up.seed = seed + 3;
  UpdateBatch batch = GenerateUpdateBatch(w.graph.get(), up);
  ASSERT_TRUE(ApplyUpdateBatch(w.graph.get(), &batch).ok()) << repro;
  const VioSet after = Dect(*w.graph, w.sigma, live);

  auto inc = IncDect(*w.graph, w.sigma, batch);
  ASSERT_TRUE(inc.ok()) << repro;
  ExpectSameSorted(after.Sorted(), ApplyDelta(before, *inc).Sorted(),
                   repro + " IncDect ApplyDelta");

  // PIncDect on the DeltaView backend, against the live IncDect above.
  const GraphSnapshot base(*w.graph, GraphView::kOld);
  PIncDectOptions po;
  po.num_processors = static_cast<int>(rng.UniformInt(2, 4));
  po.base_snapshot = &base;
  auto pinc = PIncDect(*w.graph, w.sigma, batch, po);
  ASSERT_TRUE(pinc.ok()) << repro;
  ExpectSameSorted(inc->added.Sorted(), pinc->delta.added.Sorted(),
                   repro + " PIncDect ΔVio+");
  ExpectSameSorted(inc->removed.Sorted(), pinc->delta.removed.Sorted(),
                   repro + " PIncDect ΔVio-");
  ExpectSameSorted(after.Sorted(), ApplyDelta(before, pinc->delta).Sorted(),
                   repro + " PIncDect ApplyDelta");
}

TEST(VioSetEngineDifferentialTest, AllEnginesByteIdenticalSorted) {
  const char* pinned = std::getenv("NGD_VIO_SEED");
  if (pinned != nullptr) {
    RunEngineCase(static_cast<uint64_t>(std::strtoull(pinned, nullptr, 10)));
    return;
  }
  const size_t cases = CaseCount();
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    RunEngineCase(seed);
    if (HasFailure()) {
      FAIL() << "first failing case: NGD_VIO_SEED=" << seed;
    }
  }
}

}  // namespace
}  // namespace ngd
