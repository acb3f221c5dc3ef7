// NoGoodStore: learned pruning for DIMSAT (ROADMAP item 2, layer b).
//
// The search tree below an EXPAND node is a deterministic function of
// the node's subhierarchy g (given the schema, Σ, and the semantic
// pruning options): the pending-top choice, the successor scan, and the
// subset loop all read only g and the immutable schema. So when a
// subtree has been explored to completion and yielded *no frozen
// dimension* — a dead end, an into-prune, a failed CHECK, or a fully
// enumerated barren interior node — that fact can be memoized as a
// signature of (g, options) and consulted before ever expanding an
// identical node again against the same Σ epoch.
//
// What the store can serve: a signature fixes the query root, the
// theory salt and the option bits (the *search key*), and one search
// meets each subhierarchy at most once (g determines the EXPAND path
// that built it). So a probe can only hit entries that an earlier
// search with the same key learned: an exact repeat of a search — a
// retry after a deadline, a repeat after both verdict caches evicted
// the answer, a warm restart that reloaded the store. A novel query
// never hits, and a search never hits its own entries.
//
// The engine (dimsat.cc) therefore pays per hit, not per EXPAND:
//   * It learns only the maximal barren subtrees. A rerun reaches a
//     barren node only through its highest barren ancestor, which it
//     probes first, so that ancestor's entry subsumes every entry
//     below it. A completed unsatisfiable search stores one entry.
//   * A search buffers its entries and flushes them once, when it
//     ends (Learn), together with a marker for its search key.
//   * A search looks its marker up once when it starts. Only when the
//     marker is present does it sign and probe its EXPAND nodes;
//     otherwise no probe could hit. Markers share the byte cap and the
//     LRU with the entries; evicting one only closes the gate, which
//     is safe. To ForEach they are ordinary entries, so a store that
//     is persisted and reloaded keeps probing.
//
// Soundness guards (enforced at the recording sites in dimsat.cc):
// a node is recorded only when its subtree ran to completion *inline*
// (no outstanding parallel children), with an OK status (no budget
// stop), no external stop, and no frozen dimension found below it. The
// semantic option bits (Ss / Sc / into pruning, injective names) are
// part of the signature, so a store can be shared by runs with
// different options without cross-contamination. Probing is always
// sound: a hit only ever skips a subtree known to contribute nothing.
//
// The store is a byte-capped ShardedCache of 128-bit signatures —
// thread-safe, LRU-evicting under pressure (forgetting a lemma is
// always safe).

#ifndef OLAPDC_CORE_NOGOOD_H_
#define OLAPDC_CORE_NOGOOD_H_

#include <cstdint>
#include <vector>

#include "common/cache_shard.h"
#include "core/subhierarchy.h"

namespace olapdc {

class NoGoodStore {
 public:
  struct Options {
    /// Byte cap across shards; LRU-evicted under pressure.
    uint64_t max_bytes = 4ull << 20;
    size_t num_shards = 8;
    /// Observability charge target (see cache_shard.h); not owned.
    MemoryBudget* memory = nullptr;
  };

  // Delegation instead of `Options{}` as a default argument: the
  // nested struct's member initializers are only usable once the
  // enclosing class is complete (member-init lists are).
  NoGoodStore() : NoGoodStore(Options{}) {}
  explicit NoGoodStore(Options options)
      : cache_({/*name=*/"nogood", options.num_shards, options.max_bytes,
                /*entry_overhead_bytes=*/kEntryOverheadBytes,
                options.memory}) {}

  NoGoodStore(const NoGoodStore&) = delete;
  NoGoodStore& operator=(const NoGoodStore&) = delete;

  /// Signature of a search node: the subhierarchy's exact structure
  /// (root, categories, edges), the semantic option bits of the run,
  /// and a theory salt distinguishing runs whose effective constraint
  /// theory extends Σ (DimsatOptions::nogood_salt). Two nodes with
  /// equal signatures have identical subtrees.
  static Fingerprint128 Signature(const Subhierarchy& g,
                                  uint32_t option_bits,
                                  uint64_t theory_salt = 0);

  /// Marker of a search key: the universe size, root, option bits and
  /// theory salt that every node signature of one search starts with.
  /// Where a node signature continues with its lowest category, the
  /// marker ends on a word no category id can produce, so no node
  /// signature can equal it.
  static Fingerprint128 Marker(int num_categories, int root,
                               uint32_t option_bits,
                               uint64_t theory_salt = 0);

  /// True iff `sig` is a recorded barren subtree (or a present
  /// marker); refreshes its LRU position.
  bool Probe(const Fingerprint128& sig) { return cache_.Contains(sig); }

  void Record(const Fingerprint128& sig) {
    cache_.Insert(sig, true, /*value_bytes=*/sizeof(Fingerprint128));
  }

  /// One search's flush: records its learned node signatures, then the
  /// marker of its search key, which opens the probe gate of later
  /// searches with that key. Records nothing when `sigs` is empty.
  void Learn(const Fingerprint128& marker,
             const std::vector<Fingerprint128>& sigs);

  /// How many entries the byte cap can retain (UINT64_MAX when
  /// uncapped). The engine bounds its per-search learning buffers by
  /// it: a search cannot usefully learn more than the store keeps.
  uint64_t capacity() const {
    const uint64_t cap = cache_.max_bytes();
    return cap == 0 ? UINT64_MAX : cap / kEntryBytes;
  }

  uint64_t size() const { return cache_.size(); }
  CacheStatsSnapshot Stats() const { return cache_.Stats(); }
  void Clear() { cache_.Clear(); }

  /// Visits every recorded signature, markers included (arbitrary
  /// order; concurrent records may or may not be visited). The
  /// olapdcd snapshot persists a store through it.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    cache_.ForEach([&](const Fingerprint128& sig, const bool&) { fn(sig); });
  }

 private:
  /// list node + map node + key; the signature itself is the value.
  static constexpr uint64_t kEntryOverheadBytes = 80;
  static constexpr uint64_t kEntryBytes =
      kEntryOverheadBytes + sizeof(Fingerprint128);

  ShardedCache<Fingerprint128, bool, Fingerprint128Hash> cache_;
};

}  // namespace olapdc

#endif  // OLAPDC_CORE_NOGOOD_H_
