#include "service/snapshot.h"

#include <memory>
#include <string_view>

#include "common/string_util.h"

namespace olapdc::service {

namespace {

constexpr std::string_view kMagic = "olapdc-snapshot v2";
/// One signature line of a "nogoods" record: 32 hex digits and '\n'.
constexpr size_t kSignatureLineBytes = 33;

bool ParseU64(std::string_view digits, uint64_t* out) {
  if (digits.empty() || digits.size() > 19) return false;
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// The payload of "nogoods <epoch-hex> <count>": exactly `count`
/// signature lines, all valid, or nothing is recorded.
void LoadNoGoodRecord(std::string_view epoch_hex, std::string_view count_text,
                      std::string_view payload, ServiceCaches* caches) {
  Fingerprint128 epoch;
  uint64_t count = 0;
  if (!Fingerprint128::FromHex(epoch_hex, &epoch) ||
      !ParseU64(count_text, &count) ||
      payload.size() % kSignatureLineBytes != 0 ||
      payload.size() / kSignatureLineBytes != count) {
    return;
  }
  std::vector<Fingerprint128> sigs(count);
  for (uint64_t i = 0; i < count; ++i) {
    const std::string_view line =
        payload.substr(i * kSignatureLineBytes, kSignatureLineBytes);
    if (line.back() != '\n' ||
        !Fingerprint128::FromHex(line.substr(0, kSignatureLineBytes - 1),
                                 &sigs[i])) {
      return;
    }
  }
  const std::shared_ptr<NoGoodStore> store = caches->NoGoodsFor(epoch);
  for (const Fingerprint128& sig : sigs) store->Record(sig);
}

/// The payload of "response <key-bytes> <body-bytes>": the key, then
/// the body, filling the payload exactly, or nothing is inserted.
void LoadResponseRecord(std::string_view key_text, std::string_view body_text,
                        std::string_view payload, ServiceCaches* caches) {
  uint64_t key_bytes = 0, body_bytes = 0;
  if (!ParseU64(key_text, &key_bytes) || !ParseU64(body_text, &body_bytes) ||
      key_bytes > payload.size() || body_bytes != payload.size() - key_bytes) {
    return;
  }
  caches->InsertResponse(std::string(payload.substr(0, key_bytes)),
                         std::string(payload.substr(key_bytes)));
}

}  // namespace

std::vector<std::string> BuildSnapshotRecords(uint64_t seq,
                                              const ServiceCaches& caches) {
  std::vector<std::string> records;
  records.push_back(std::string(kMagic) + "\nseq " + std::to_string(seq) +
                    "\n");
  for (const auto& [epoch, store] : caches.NoGoodStores()) {
    // Count what is written, not the store's size: other threads may
    // record while this runs.
    std::string sigs;
    uint64_t count = 0;
    store->ForEach([&](const Fingerprint128& sig) {
      sigs += sig.ToHex();
      sigs += '\n';
      ++count;
    });
    records.push_back("nogoods " + epoch.ToHex() + " " +
                      std::to_string(count) + "\n" + sigs);
  }
  const size_t responses_end = records.size() + kMaxSnapshotResponses;
  caches.ForEachResponse([&](const std::string& key, const std::string& body) {
    if (records.size() == responses_end) return;
    records.push_back("response " + std::to_string(key.size()) + " " +
                      std::to_string(body.size()) + "\n" + key + body);
  });
  return records;
}

Result<uint64_t> LoadSnapshotRecords(const std::vector<std::string>& records,
                                     ServiceCaches* caches) {
  if (records.empty()) {
    return Status::ParseError("snapshot has no meta record");
  }
  std::string_view meta = records[0];
  if (NextLine(&meta) != kMagic) {
    return Status::ParseError(
        "snapshot meta record must start with \"olapdc-snapshot v2\"");
  }
  const std::string_view seq_line = NextLine(&meta);
  uint64_t seq = 0;
  if (seq_line.substr(0, 4) != "seq " || !ParseU64(seq_line.substr(4), &seq)) {
    return Status::ParseError("snapshot meta record malformed");
  }
  for (size_t i = 1; i < records.size(); ++i) {
    std::string_view payload = records[i];
    // "<kind> <a> <b>"; a header of any other shape is skipped like an
    // unknown kind.
    const std::string_view header = NextLine(&payload);
    const size_t kind_end = header.find(' ');
    if (kind_end == std::string_view::npos) continue;
    const size_t a_end = header.find(' ', kind_end + 1);
    if (a_end == std::string_view::npos) continue;
    const std::string_view kind = header.substr(0, kind_end);
    const std::string_view a =
        header.substr(kind_end + 1, a_end - kind_end - 1);
    const std::string_view b = header.substr(a_end + 1);
    if (kind == "nogoods") {
      LoadNoGoodRecord(a, b, payload, caches);
    } else if (kind == "response") {
      LoadResponseRecord(a, b, payload, caches);
    }
  }
  return seq;
}

}  // namespace olapdc::service
