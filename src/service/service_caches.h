// ServiceCaches: the cross-request cache plane of olapdcd (ROADMAP
// item 2). One instance owns the three layers, all keyed by the
// SchemaRegistry's (schema, Σ) content epoch:
//
//   layer a — the canonicalized constraint/response cache: the full
//             200 JSON body of a definitive answer, keyed by
//             op + epoch + canonical inputs, so an identical request
//             against an unchanged epoch is one hash lookup and zero
//             engine work.
//   layer b — per-epoch DIMSAT no-good stores (core/nogood.h):
//             the maximal barren subtrees each search proved, keyed by
//             the search (root, theory salt, option bits), so an exact
//             repeat of a search — a retry, a repeat the verdict
//             layers no longer hold, a warm restart — skips them. A
//             novel query never hits. The last few epochs stay live;
//             older ones age out with their stores.
//   layer c — the shared implication-closure cache
//             (core/answer_cache.h): canonical-key -> verdict, keyed
//             under an "e<epoch>/" scope. Survives response-cache
//             eviction (a verdict is ~100 bytes, a body ~300).
//
// Invalidation is the registry's epoch model: a replaced theory gets a
// new content fingerprint, every key under the old epoch goes
// permanently cold, and the LRU reclaims the bytes. Nothing is ever
// served across epochs.
//
// All layers share one byte envelope, enforced per-layer by the
// ShardedCache LRU and *charged* to a track-only MemoryBudget so cache
// residency is visible on the olapdc.mem gauges next to request
// memory. Losing an entry is always safe — every layer is a pure
// memoization of deterministic engines.

#ifndef OLAPDC_SERVICE_SERVICE_CACHES_H_
#define OLAPDC_SERVICE_SERVICE_CACHES_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/cache_shard.h"
#include "common/memory_budget.h"
#include "core/answer_cache.h"
#include "core/nogood.h"

namespace olapdc::service {

class ServiceCaches {
 public:
  struct Options {
    /// Byte envelope across all layers: half to the response cache,
    /// a quarter to the closure cache, a quarter split across the
    /// live no-good stores. 0 disables byte caps (test/bench use).
    uint64_t memory_budget_bytes = 32ull << 20;
    size_t num_shards = 8;
    /// Live per-epoch no-good stores; least recently used epochs drop
    /// their stores (a replaced-then-restored theory restarts cold).
    size_t max_epoch_stores = 4;
  };

  ServiceCaches() : ServiceCaches(Options{}) {}
  explicit ServiceCaches(Options options);

  ServiceCaches(const ServiceCaches&) = delete;
  ServiceCaches& operator=(const ServiceCaches&) = delete;

  /// Layer a. Keys are op + epoch + canonical inputs; values are the
  /// response JSON body (no trailing newline, no "cached" marker — the
  /// serve path appends it).
  bool LookupResponse(const std::string& key, std::string* body) {
    return responses_.Lookup(key, body);
  }
  void InsertResponse(const std::string& key, const std::string& body) {
    responses_.Insert(key, body, key.size() + body.size());
  }
  /// Drops every layer-a entry (bench/test isolation of the closure
  /// layer); layers b and c are untouched.
  void ClearResponses() { responses_.Clear(); }

  /// Layer c. Callers scope keys with "e" + epoch.ToHex() + "/".
  AnswerCache& closure() { return closure_; }

  /// Layer b. The store for `epoch`, created on first use; refreshes
  /// the epoch's LRU position and drops the oldest store beyond
  /// max_epoch_stores. The returned shared_ptr keeps a store usable
  /// for a whole request even if its epoch is aged out concurrently.
  std::shared_ptr<NoGoodStore> NoGoodsFor(const Fingerprint128& epoch);

  /// Aggregate accounting (all layers; invalidations live on the
  /// SchemaRegistry, which owns the epochs).
  CacheStatsSnapshot ResponseStats() const { return responses_.Stats(); }
  CacheStatsSnapshot ClosureStats() const { return closure_.Stats(); }
  CacheStatsSnapshot NoGoodStats() const;

  /// Observability charge target shared by every layer (track-only:
  /// limit 0; enforcement is each layer's LRU byte cap).
  MemoryBudget& memory() { return memory_; }

  /// Publishes per-layer entry/byte gauges (olapdc.cache.*.entries /
  /// .bytes) and the olapdc.mem residency gauges. Called per request
  /// by DimService; cheap (a handful of uncontended shard locks).
  void PublishGauges() const;

  /// Each live no-good store with its epoch, most recently used first
  /// (what the olapdcd snapshot persists, service/snapshot.h).
  std::vector<std::pair<Fingerprint128, std::shared_ptr<NoGoodStore>>>
  NoGoodStores() const;

  /// Visits every layer-a entry as fn(key, body), shard by shard.
  template <typename Fn>
  void ForEachResponse(Fn&& fn) const {
    responses_.ForEach(fn);
  }

  /// Total entries across the live no-good stores — the crash
  /// harness's monotonicity counter.
  uint64_t NoGoodEntryCount() const { return NoGoodStats().entries; }

 private:
  Options options_;
  /// Track-only (limit 0): see class comment.
  MemoryBudget memory_{0};
  ShardedCache<std::string, std::string> responses_;
  AnswerCache closure_;

  mutable std::mutex epochs_mu_;
  /// Front = most recently used epoch.
  std::list<std::pair<Fingerprint128, std::shared_ptr<NoGoodStore>>>
      epoch_stores_;
};

}  // namespace olapdc::service

#endif  // OLAPDC_SERVICE_SERVICE_CACHES_H_
