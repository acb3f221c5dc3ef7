#include "service/service_caches.h"

#include <utility>
#include <vector>

#include "common/string_util.h"
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

CacheStatsSnapshot ServiceCaches::NoGoodStats() const {
  // Copy the store pointers out so the per-store shard locks are taken
  // without holding the epoch list lock.
  std::vector<std::shared_ptr<NoGoodStore>> stores;
  {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    stores.reserve(epoch_stores_.size());
    for (const auto& [epoch, store] : epoch_stores_) stores.push_back(store);
  }
  CacheStatsSnapshot total;
  for (const auto& store : stores) {
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

std::string ServiceCaches::SerializeNoGoods() const {
  std::vector<std::pair<Fingerprint128, std::shared_ptr<NoGoodStore>>> stores;
  {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    stores.assign(epoch_stores_.begin(), epoch_stores_.end());
  }
  std::string out = "olapdc-nogood-stores v1\n";
  out += "stores " + std::to_string(stores.size()) + "\n";
  for (const auto& [epoch, store] : stores) {
    out += "epoch " + epoch.ToHex() + "\n";
    out += store->Serialize();
  }
  return out;
}

Status ServiceCaches::LoadNoGoods(std::string_view text) {
  std::string_view rest = text;
  if (NextLine(&rest) != "olapdc-nogood-stores v1") {
    return Status::ParseError(
        "no-good persistence must start with \"olapdc-nogood-stores v1\"");
  }
  std::string_view count_line = NextLine(&rest);
  constexpr std::string_view kStores = "stores ";
  if (count_line.substr(0, kStores.size()) != kStores ||
      count_line.size() == kStores.size()) {
    return Status::ParseError("no-good persistence missing \"stores K\"");
  }
  uint64_t expected = 0;
  for (const char c : count_line.substr(kStores.size())) {
    if (c < '0' || c > '9') {
      return Status::ParseError("malformed store count");
    }
    expected = expected * 10 + static_cast<uint64_t>(c - '0');
    if (expected > 4096) {
      return Status::ParseError("implausible store count");
    }
  }
  // Parse everything into uncapped staging stores first; the live
  // per-epoch stores are only touched after the whole text validated,
  // so adversarial input (truncated mid-record, mangled hex, an
  // oversized count header) can never half-load learned pruning.
  std::vector<std::pair<Fingerprint128, std::unique_ptr<NoGoodStore>>> staged;
  for (uint64_t i = 0; i < expected; ++i) {
    std::string_view epoch_line = NextLine(&rest);
    constexpr std::string_view kEpoch = "epoch ";
    Fingerprint128 epoch;
    if (epoch_line.substr(0, kEpoch.size()) != kEpoch ||
        !Fingerprint128::FromHex(epoch_line.substr(kEpoch.size()), &epoch)) {
      return Status::ParseError("malformed epoch at store " +
                                std::to_string(i));
    }
    NoGoodStore::Options staging_options;
    staging_options.max_bytes = 0;  // uncapped: staging must not evict
    staging_options.memory = nullptr;
    auto store = std::make_unique<NoGoodStore>(staging_options);
    size_t consumed = 0;
    OLAPDC_RETURN_NOT_OK(store->Load(rest, &consumed));
    rest = rest.substr(consumed);
    staged.emplace_back(epoch, std::move(store));
  }
  for (auto& [epoch, store] : staged) {
    const std::shared_ptr<NoGoodStore> target = NoGoodsFor(epoch);
    store->ForEach([&](const Fingerprint128& sig) { target->Record(sig); });
  }
  return Status::OK();
}

std::string ServiceCaches::SerializeResponses(size_t max_entries) const {
  std::vector<std::pair<std::string, std::string>> entries;
  responses_.ForEach([&](const std::string& key, const std::string& body) {
    if (entries.size() < max_entries) entries.emplace_back(key, body);
  });
  std::string out = "olapdc-responses v1\n";
  out += "entries " + std::to_string(entries.size()) + "\n";
  for (const auto& [key, body] : entries) {
    out += std::to_string(key.size()) + " " + std::to_string(body.size()) +
           "\n";
    out += key;
    out += body;
    out += '\n';
  }
  return out;
}

Status ServiceCaches::LoadResponses(std::string_view text) {
  std::string_view rest = text;
  if (NextLine(&rest) != "olapdc-responses v1") {
    return Status::ParseError(
        "response snapshot must start with \"olapdc-responses v1\"");
  }
  std::string_view count_line = NextLine(&rest);
  constexpr std::string_view kEntries = "entries ";
  if (count_line.substr(0, kEntries.size()) != kEntries ||
      count_line.size() == kEntries.size()) {
    return Status::ParseError("response snapshot missing \"entries N\"");
  }
  uint64_t expected = 0;
  for (const char c : count_line.substr(kEntries.size())) {
    if (c < '0' || c > '9') {
      return Status::ParseError("malformed response entry count");
    }
    expected = expected * 10 + static_cast<uint64_t>(c - '0');
    if (expected > (1u << 20)) {
      return Status::ParseError("implausible response entry count");
    }
  }
  auto parse_size = [](std::string_view digits, size_t* out) {
    if (digits.empty()) return false;
    uint64_t value = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<uint64_t>(c - '0');
      if (value > (64u << 20)) return false;  // one entry past 64MB: no
    }
    *out = static_cast<size_t>(value);
    return true;
  };
  std::vector<std::pair<std::string, std::string>> staged;
  staged.reserve(static_cast<size_t>(expected));
  for (uint64_t i = 0; i < expected; ++i) {
    const std::string_view sizes_line = NextLine(&rest);
    const size_t space = sizes_line.find(' ');
    size_t key_len = 0, body_len = 0;
    if (space == std::string_view::npos ||
        !parse_size(sizes_line.substr(0, space), &key_len) ||
        !parse_size(sizes_line.substr(space + 1), &body_len)) {
      return Status::ParseError("malformed response entry header at entry " +
                                std::to_string(i));
    }
    if (rest.size() < key_len + body_len + 1 ||
        rest[key_len + body_len] != '\n') {
      return Status::ParseError("truncated response entry " +
                                std::to_string(i));
    }
    staged.emplace_back(std::string(rest.substr(0, key_len)),
                        std::string(rest.substr(key_len, body_len)));
    rest = rest.substr(key_len + body_len + 1);
  }
  for (const auto& [key, body] : staged) InsertResponse(key, body);
  return Status::OK();
}

}  // namespace olapdc::service
