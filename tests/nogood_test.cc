// Tests for core/nogood.h — the DIMSAT learned-pruning store (ROADMAP
// item 2, layer b). Four layers of assurance:
//
//   1. store semantics: record/probe, signature discrimination over
//      structure / option bits / theory salt, search-key markers
//      (persistence is tests/snapshot_test.cc's);
//   2. engine equivalence: a search with a store attached (cold, warm,
//      or mid-fill; sequential or on the work-stealing pool; capped to
//      a few KiB) must return exactly the frozen-dimension set and
//      satisfiability verdict of a storeless search — over the
//      location example and a 24-seed generated corpus;
//   3. cost: a search learns only its maximal barren subtrees, which a
//      rerun hits exactly once each, and a search whose key the store
//      has never seen makes one store lookup, not one per EXPAND;
//   4. chaos: faults injected mid-fill must never poison the store —
//      the guards at the recording sites only admit subtrees whose
//      exploration completed cleanly.

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "core/nogood.h"
#include "core/subhierarchy.h"
#include "exec/work_stealing_pool.h"
#include "gtest/gtest.h"
#include "obs/search_tree.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

// Canonical serialization of a frozen-dimension set: sorted rendered
// strings, so two enumerations compare as sets regardless of discovery
// order (the store changes visit order, never the answer).
std::vector<std::string> Canonical(const std::vector<FrozenDimension>& fs,
                                   const HierarchySchema& schema) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const FrozenDimension& f : fs) out.push_back(f.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

/// The generated corpus shape used throughout: small enough that full
/// enumeration is fast, constrained enough that barren subtrees exist.
Result<DimensionSchema> CorpusSchema(uint64_t seed) {
  SchemaGenOptions gen;
  gen.num_levels = 4;
  gen.categories_per_level = 3;
  gen.extra_edge_prob = 0.3;
  gen.max_level_jump = 2;
  gen.seed = seed;
  auto hierarchy = GenerateLayeredHierarchy(gen);
  if (!hierarchy.ok()) return hierarchy.status();
  ConstraintGenOptions cgen;
  cgen.into_fraction = 0.5;
  cgen.num_choice_constraints = 3;
  cgen.num_equality_constraints = 2;
  cgen.seed = seed;
  return GenerateConstrainedSchema(*hierarchy, cgen);
}

// ---------------------------------------------------------------------------
// Store semantics

TEST(NoGoodStoreTest, RecordProbeAndClear) {
  NoGoodStore store;
  const Fingerprint128 sig = FingerprintBytes("subtree");
  EXPECT_FALSE(store.Probe(sig));
  store.Record(sig);
  EXPECT_TRUE(store.Probe(sig));
  EXPECT_EQ(store.size(), 1u);
  store.Clear();
  EXPECT_FALSE(store.Probe(sig));
  EXPECT_EQ(store.size(), 0u);
}

TEST(NoGoodStoreTest, SignatureDiscriminatesRootOptionsAndSalt) {
  const Subhierarchy at_zero(8, /*root=*/0);
  const Subhierarchy at_one(8, /*root=*/1);
  const Fingerprint128 base = NoGoodStore::Signature(at_zero, 0);
  // Same inputs, same signature.
  EXPECT_EQ(base, NoGoodStore::Signature(at_zero, 0));
  // A different root is a different subtree.
  EXPECT_NE(base, NoGoodStore::Signature(at_one, 0));
  // Different semantic option bits must not alias (a subtree barren
  // under Ss+Sc pruning may not be barren without them).
  EXPECT_NE(base, NoGoodStore::Signature(at_zero, 7));
  // Different theory salts must not alias (Σ vs Σ ∪ {¬α}).
  EXPECT_NE(base, NoGoodStore::Signature(at_zero, 0, /*theory_salt=*/1));
}

TEST(NoGoodStoreTest, MarkersAreNoNodeSignaturesAndLearnFlushesOnce) {
  const Fingerprint128 marker = NoGoodStore::Marker(8, /*root=*/0, 7, 3);
  // A search's starting node shares every key word with its marker.
  EXPECT_NE(marker, NoGoodStore::Signature(Subhierarchy(8, 0), 7, 3));
  EXPECT_EQ(marker, NoGoodStore::Marker(8, 0, 7, 3));
  EXPECT_NE(marker, NoGoodStore::Marker(8, 1, 7, 3));
  EXPECT_NE(marker, NoGoodStore::Marker(8, 0, 6, 3));
  EXPECT_NE(marker, NoGoodStore::Marker(8, 0, 7, 4));
  EXPECT_NE(marker, NoGoodStore::Marker(9, 0, 7, 3));

  NoGoodStore store;
  store.Learn(marker, {});  // nothing learned: the gate stays shut
  EXPECT_EQ(store.size(), 0u);
  const Fingerprint128 sig = FingerprintBytes("subtree");
  store.Learn(marker, {sig});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Probe(marker));
  EXPECT_TRUE(store.Probe(sig));

  // Capacity counts each entry's bookkeeping, not just its 16 bytes.
  NoGoodStore::Options tiny;
  tiny.max_bytes = 4096;
  EXPECT_GT(NoGoodStore(tiny).capacity(), 0u);
  EXPECT_LT(NoGoodStore(tiny).capacity(), 4096u / sizeof(Fingerprint128));
  tiny.max_bytes = 0;
  EXPECT_EQ(NoGoodStore(tiny).capacity(), UINT64_MAX);
}

// ---------------------------------------------------------------------------
// Engine equivalence

TEST(NoGoodDimsatTest, WarmEnumerationPrunesAndMatchesColdExactly) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(4));
  NoGoodStore store;
  obs::SearchTreeRecorder& recorder = obs::SearchTreeRecorder::Global();
  uint64_t cold_expands = 0, warm_expands = 0, prunes = 0, skip_events = 0;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions plain;
    plain.enumerate_all = true;
    const DimsatResult cold = RunDimsat(ds, c, plain);
    ASSERT_TRUE(cold.status.ok());
    cold_expands += cold.stats.expand_calls;

    DimsatOptions learned = plain;
    learned.nogoods = &store;
    const DimsatResult fill = RunDimsat(ds, c, learned);
    recorder.Enable();
    const DimsatResult warm = RunDimsat(ds, c, learned);
    const std::vector<obs::ExplainEvent> events = recorder.Drain();
    recorder.Disable();
    warm_expands += warm.stats.expand_calls;
    prunes += warm.stats.nogood_prunes;
    // The explain stream names every subtree the store skipped.
    const uint64_t skipped = static_cast<uint64_t>(std::count_if(
        events.begin(), events.end(), [](const obs::ExplainEvent& e) {
          return e.kind == obs::ExplainEvent::Kind::kPruneNogood;
        }));
    EXPECT_EQ(skipped, warm.stats.nogood_prunes) << "category " << c;
    skip_events += skipped;

    // The store may reorder or skip exploration, never change answers.
    EXPECT_EQ(Canonical(fill.frozen, ds.hierarchy()),
              Canonical(cold.frozen, ds.hierarchy()))
        << "fill run diverged at category " << c;
    EXPECT_EQ(Canonical(warm.frozen, ds.hierarchy()),
              Canonical(cold.frozen, ds.hierarchy()))
        << "warm run diverged at category " << c;
  }
  // The whole point: learned pruning actually fires and saves work.
  EXPECT_GT(store.size(), 0u);
  EXPECT_GT(prunes, 0u);
  EXPECT_GT(skip_events, 0u);
  EXPECT_LT(warm_expands, cold_expands);
}

TEST(NoGoodDimsatTest, CachedVsColdSetEqualityOver24Seeds) {
  exec::WorkStealingPool pool(4);
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(seed));
    NoGoodStore store;  // shared across every category of this schema
    // Filled by work-stealing runs, whose tasks flush concurrently.
    NoGoodStore parallel_store;
    for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
      if (c == ds.hierarchy().all()) continue;
      DimsatOptions plain;
      plain.enumerate_all = true;
      const DimsatResult cold = RunDimsat(ds, c, plain);
      ASSERT_TRUE(cold.status.ok()) << "seed " << seed;

      DimsatOptions learned = plain;
      learned.nogoods = &store;
      const DimsatResult cached = RunDimsat(ds, c, learned);
      ASSERT_TRUE(cached.status.ok()) << "seed " << seed;
      EXPECT_EQ(Canonical(cached.frozen, ds.hierarchy()),
                Canonical(cold.frozen, ds.hierarchy()))
          << "seed " << seed << " category " << c;

      // Witness mode (the /v1/check default) must agree on the verdict
      // even though the store was learned under enumeration.
      DimsatOptions witness;
      witness.nogoods = &store;
      const DimsatResult quick = RunDimsat(ds, c, witness);
      ASSERT_TRUE(quick.status.ok()) << "seed " << seed;
      EXPECT_EQ(quick.satisfiable, cold.satisfiable)
          << "seed " << seed << " category " << c;

      // Fill at 4 threads, then probe at 1 and at 4 threads.
      DimsatOptions parallel = plain;
      parallel.nogoods = &parallel_store;
      parallel.num_threads = 4;
      parallel.pool = &pool;
      const DimsatResult parallel_fill = RunDimsat(ds, c, parallel);
      ASSERT_TRUE(parallel_fill.status.ok()) << "seed " << seed;
      EXPECT_EQ(Canonical(parallel_fill.frozen, ds.hierarchy()),
                Canonical(cold.frozen, ds.hierarchy()))
          << "seed " << seed << " category " << c << " parallel fill";
      for (const int threads : {1, 4}) {
        DimsatOptions probe = parallel;
        probe.num_threads = threads;
        const DimsatResult warm = RunDimsat(ds, c, probe);
        ASSERT_TRUE(warm.status.ok()) << "seed " << seed;
        EXPECT_EQ(Canonical(warm.frozen, ds.hierarchy()),
                  Canonical(cold.frozen, ds.hierarchy()))
            << "seed " << seed << " category " << c << " threads "
            << threads;
        probe.enumerate_all = false;
        const DimsatResult verdict = RunDimsat(ds, c, probe);
        ASSERT_TRUE(verdict.status.ok()) << "seed " << seed;
        EXPECT_EQ(verdict.satisfiable, cold.satisfiable)
            << "seed " << seed << " category " << c << " threads "
            << threads;
      }
    }
  }
}

// Lookups (hits + misses) the store has served so far.
uint64_t Lookups(const NoGoodStore& store) {
  const CacheStatsSnapshot stats = store.Stats();
  return stats.hits + stats.misses;
}

TEST(NoGoodDimsatTest, LearnsTheBarrenFrontierAndProbesOnlySeenSearches) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(4));
  NoGoodStore store;
  uint64_t total_prunes = 0, fill_expands = 0;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions plain;
    plain.enumerate_all = true;
    const DimsatResult cold = RunDimsat(ds, c, plain);
    ASSERT_TRUE(cold.status.ok());

    // A search whose key (root, salt, option bits) the store has never
    // seen looks its marker up once and then neither signs nor probes.
    DimsatOptions learned = plain;
    learned.nogoods = &store;
    const uint64_t lookups_before = Lookups(store);
    const uint64_t size_before = store.size();
    const DimsatResult fill = RunDimsat(ds, c, learned);
    ASSERT_TRUE(fill.status.ok());
    EXPECT_EQ(Lookups(store) - lookups_before, 1u)
        << "category " << c << ": " << fill.stats.expand_calls
        << " EXPANDs";
    EXPECT_EQ(fill.stats.expand_calls, cold.stats.expand_calls);
    EXPECT_EQ(fill.stats.nogood_prunes, 0u);
    fill_expands += fill.stats.expand_calls;

    // The flush adds the search's node entries plus one marker, and no
    // marker when it learned nothing.
    const uint64_t added = store.size() - size_before;
    const uint64_t node_entries = added > 0 ? added - 1 : 0;

    // Every learned entry is maximal: the rerun hits each exactly once,
    // probes every node it still reaches (its gate is open iff the fill
    // left a marker), and learns nothing new.
    const uint64_t warm_lookups_before = Lookups(store);
    const DimsatResult warm = RunDimsat(ds, c, learned);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(warm.stats.nogood_prunes, node_entries) << "category " << c;
    EXPECT_EQ(Lookups(store) - warm_lookups_before,
              added > 0 ? 1 + warm.stats.expand_calls + warm.stats.nogood_prunes
                        : 1)
        << "category " << c;
    EXPECT_EQ(store.size() - size_before, added) << "category " << c;
    EXPECT_EQ(Canonical(warm.frozen, ds.hierarchy()),
              Canonical(cold.frozen, ds.hierarchy()))
        << "category " << c;
    total_prunes += warm.stats.nogood_prunes;

    // An unsatisfiable search stores one entry, its root: every
    // category rolls up to All, so Σ ∪ {¬(c.All)} refutes everywhere.
    const DimensionConstraint rolls_up = testing_util::ParseC(
        ds.hierarchy(), ds.hierarchy().CategoryName(c) + ".All");
    DimsatOptions refute = learned;
    refute.nogood_salt = 1000 + static_cast<uint64_t>(c);
    const uint64_t refute_size_before = store.size();
    const uint64_t refute_lookups_before = Lookups(store);
    ASSERT_OK_AND_ASSIGN(ImplicationResult implied,
                         Implies(ds, rolls_up, refute));
    ASSERT_TRUE(implied.status.ok());
    EXPECT_TRUE(implied.implied) << "category " << c;
    EXPECT_GT(implied.stats.expand_calls, 0u);
    EXPECT_EQ(Lookups(store) - refute_lookups_before, 1u);
    EXPECT_EQ(store.size() - refute_size_before, 2u)  // root + marker
        << "category " << c;
    ASSERT_OK_AND_ASSIGN(ImplicationResult again,
                         Implies(ds, rolls_up, refute));
    EXPECT_TRUE(again.implied);
    EXPECT_EQ(again.stats.expand_calls, 0u);
    EXPECT_EQ(again.stats.nogood_prunes, 1u);
  }
  // Not vacuous: reruns pruned, and the store learned far fewer
  // entries than the searches expanded nodes.
  EXPECT_GT(total_prunes, 0u);
  EXPECT_LT(store.size() * 4, fill_expands);
}

TEST(NoGoodDimsatTest, TinyStoreNeverChangesAnswers) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(4));
  NoGoodStore::Options tiny;
  tiny.max_bytes = 4096;
  NoGoodStore store(tiny);
  for (int round = 0; round < 2; ++round) {
    for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
      if (c == ds.hierarchy().all()) continue;
      DimsatOptions plain;
      plain.enumerate_all = true;
      const DimsatResult cold = RunDimsat(ds, c, plain);
      DimsatOptions learned = plain;
      learned.nogoods = &store;
      const DimsatResult got = RunDimsat(ds, c, learned);
      ASSERT_TRUE(got.status.ok());
      EXPECT_EQ(Canonical(got.frozen, ds.hierarchy()),
                Canonical(cold.frozen, ds.hierarchy()))
          << "round " << round << " category " << c;
      DimsatOptions witness;
      witness.nogoods = &store;
      EXPECT_EQ(RunDimsat(ds, c, witness).satisfiable, cold.satisfiable)
          << "round " << round << " category " << c;
    }
  }
  // The cap really bit: entries and markers were evicted along the way.
  EXPECT_GT(store.Stats().evictions, 0u);
  EXPECT_LE(store.Stats().bytes, tiny.max_bytes);
}

TEST(NoGoodDimsatTest, TheorySaltKeepsForeignLemmasInvisible) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(4));
  NoGoodStore store;
  uint64_t salted_prunes = 0, resalted_prunes = 0;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions learned;
    learned.enumerate_all = true;
    learned.nogoods = &store;
    learned.nogood_salt = 1;
    RunDimsat(ds, c, learned);  // fill under theory salt 1

    // Probing under a different salt sees nothing — lemmas learned
    // against one effective theory never leak into another.
    DimsatOptions other = learned;
    other.nogood_salt = 2;
    salted_prunes += RunDimsat(ds, c, other).stats.nogood_prunes;
    resalted_prunes += RunDimsat(ds, c, learned).stats.nogood_prunes;
  }
  EXPECT_EQ(salted_prunes, 0u);
  EXPECT_GT(resalted_prunes, 0u);
}

// ---------------------------------------------------------------------------
// Chaos: mid-fill faults never poison the store

TEST(NoGoodDimsatTest, FaultsMidFillNeverCorruptLaterAnswers) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, CorpusSchema(4));
  // Ground truth, storeless and fault-free.
  std::vector<std::vector<std::string>> truth;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions plain;
    plain.enumerate_all = true;
    truth.push_back(Canonical(RunDimsat(ds, c, plain).frozen,
                              ds.hierarchy()));
  }

  NoGoodStore store;
  {
    // Fill passes under a 2% deadline-fault rate: many searches die
    // mid-subtree. The recording guards (OK status only, subtree
    // completed inline) must keep every partial exploration out.
    ScopedFaultInjection guard(/*seed=*/2024);
    FaultInjector::Global().SetFault("dimsat.expand",
                                     StatusCode::kDeadlineExceeded, 0.02,
                                     "injected mid-fill fault");
    for (int round = 0; round < 3; ++round) {
      for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
        if (c == ds.hierarchy().all()) continue;
        DimsatOptions learned;
        learned.enumerate_all = true;
        learned.nogoods = &store;
        RunDimsat(ds, c, learned);  // outcome irrelevant; store is not
      }
    }
    EXPECT_GE(FaultInjector::Global().failures("dimsat.expand"), 1u);
  }

  // Fault-free warm runs against the chaos-filled store: answers must
  // equal ground truth exactly.
  size_t i = 0;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    if (c == ds.hierarchy().all()) continue;
    DimsatOptions learned;
    learned.enumerate_all = true;
    learned.nogoods = &store;
    const DimsatResult warm = RunDimsat(ds, c, learned);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(Canonical(warm.frozen, ds.hierarchy()), truth[i])
        << "category " << c << " diverged after chaos fill";
    ++i;
  }
}

}  // namespace
}  // namespace olapdc
