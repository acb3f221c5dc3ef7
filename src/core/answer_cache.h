// AnswerCache: the shared implication-closure cache (layer c of
// docs/caching.md) and the one verdict memo of the query layer: a
// process-wide, thread-safe canonical-key -> verdict map. Callers
// prefix every key with the (schema, Σ) content epoch
// (SchemaRegistry::Snapshot::epoch), so a theory edit orphans the old
// closure atomically and identical questions against an unchanged Σ
// are answered without any search, across requests and connections.
//
// Only definitive verdicts are stored (a budget-truncated "unknown" is
// recomputed on the next ask), which is what makes sharing sound: a
// definitive answer against an immutable schema content is true
// forever under that epoch.

#ifndef OLAPDC_CORE_ANSWER_CACHE_H_
#define OLAPDC_CORE_ANSWER_CACHE_H_

#include <cstdint>
#include <string>

#include "common/cache_shard.h"

namespace olapdc {

class AnswerCache {
 public:
  struct Options {
    uint64_t max_bytes = 4ull << 20;
    size_t num_shards = 8;
    /// Observability charge target (see cache_shard.h); not owned.
    MemoryBudget* memory = nullptr;
  };

  // `Options{}` as a default argument would need the nested struct's
  // member initializers before the enclosing class is complete, which
  // GCC rejects; the delegating default constructor sidesteps that.
  AnswerCache() : AnswerCache(Options{}) {}
  explicit AnswerCache(Options options)
      : cache_({/*name=*/"closure", options.num_shards, options.max_bytes,
                /*entry_overhead_bytes=*/96, options.memory}) {}

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// True (and sets *yes) iff a definitive verdict is cached for `key`.
  bool Lookup(const std::string& key, bool* yes) {
    return cache_.Lookup(key, yes);
  }

  /// Records a definitive verdict. Keys must carry the epoch prefix —
  /// the cache itself is epoch-agnostic.
  void Insert(const std::string& key, bool yes) {
    cache_.Insert(key, yes, key.size());
  }

  uint64_t size() const { return cache_.size(); }
  CacheStatsSnapshot Stats() const { return cache_.Stats(); }
  void Clear() { cache_.Clear(); }

 private:
  ShardedCache<std::string, bool> cache_;
};

}  // namespace olapdc

#endif  // OLAPDC_CORE_ANSWER_CACHE_H_
