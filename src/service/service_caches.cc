#include "service/service_caches.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace olapdc::service {

ServiceCaches::ServiceCaches(Options options)
    : options_(options),
      responses_({/*name=*/"constraint", options.num_shards,
                  options.memory_budget_bytes == 0
                      ? 0
                      : options.memory_budget_bytes / 2,
                  /*entry_overhead_bytes=*/160, &memory_}),
      closure_({options.memory_budget_bytes == 0
                    ? 0
                    : options.memory_budget_bytes / 4,
                options.num_shards, &memory_}) {
  if (options_.max_epoch_stores == 0) options_.max_epoch_stores = 1;
}

std::shared_ptr<NoGoodStore> ServiceCaches::NoGoodsFor(
    const Fingerprint128& epoch) {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  for (auto it = epoch_stores_.begin(); it != epoch_stores_.end(); ++it) {
    if (it->first == epoch) {
      epoch_stores_.splice(epoch_stores_.begin(), epoch_stores_, it);
      return epoch_stores_.front().second;
    }
  }
  NoGoodStore::Options store_options;
  store_options.max_bytes =
      options_.memory_budget_bytes == 0
          ? 0
          : options_.memory_budget_bytes / 4 / options_.max_epoch_stores;
  store_options.memory = &memory_;
  epoch_stores_.emplace_front(
      epoch, std::make_shared<NoGoodStore>(store_options));
  while (epoch_stores_.size() > options_.max_epoch_stores) {
    epoch_stores_.pop_back();
  }
  return epoch_stores_.front().second;
}

std::vector<std::pair<Fingerprint128, std::shared_ptr<NoGoodStore>>>
ServiceCaches::NoGoodStores() const {
  // A copy, so callers take the per-store shard locks without holding
  // the epoch list lock.
  std::lock_guard<std::mutex> lock(epochs_mu_);
  return {epoch_stores_.begin(), epoch_stores_.end()};
}

CacheStatsSnapshot ServiceCaches::NoGoodStats() const {
  CacheStatsSnapshot total;
  for (const auto& [epoch, store] : NoGoodStores()) {
    const CacheStatsSnapshot s = store->Stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.entries += s.entries;
    total.bytes += s.bytes;
  }
  return total;
}

void ServiceCaches::PublishGauges() const {
  if (!obs::MetricsEnabled()) return;
  const CacheStatsSnapshot response = ResponseStats();
  const CacheStatsSnapshot closure = ClosureStats();
  const CacheStatsSnapshot nogood = NoGoodStats();
  obs::Gauge("olapdc.cache.constraint.entries",
             static_cast<int64_t>(response.entries));
  obs::Gauge("olapdc.cache.constraint.bytes",
             static_cast<int64_t>(response.bytes));
  obs::Gauge("olapdc.cache.closure.entries",
             static_cast<int64_t>(closure.entries));
  obs::Gauge("olapdc.cache.closure.bytes",
             static_cast<int64_t>(closure.bytes));
  obs::Gauge("olapdc.cache.nogood.entries",
             static_cast<int64_t>(nogood.entries));
  obs::Gauge("olapdc.cache.nogood.bytes",
             static_cast<int64_t>(nogood.bytes));
  memory_.PublishGauges();
  // Complete-inventory rule (docs/observability.md): the aggregate
  // counter names exist from the first scrape, even at zero.
  obs::Count("olapdc.cache.hits", 0);
  obs::Count("olapdc.cache.misses", 0);
  obs::Count("olapdc.cache.evictions", 0);
  obs::Count("olapdc.cache.invalidations", 0);
}

}  // namespace olapdc::service
