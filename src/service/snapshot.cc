#include "service/snapshot.h"

#include <utility>

#include "common/string_util.h"

namespace olapdc::service {

namespace {

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

/// "prefix N" -> N, or false.
bool ParseKeyedU64(std::string_view line, std::string_view key,
                   uint64_t* out) {
  if (line.substr(0, key.size()) != key) return false;
  return ParseU64(line.substr(key.size()), out);
}

}  // namespace

std::vector<std::string> BuildSnapshotRecords(uint64_t seq,
                                              const SchemaRegistry& registry,
                                              const ServiceCaches& caches,
                                              const SnapshotOptions& options) {
  std::vector<std::string> records;
  records.reserve(4);

  std::string meta = "olapdc-snapshot v1\n";
  meta += "seq " + std::to_string(seq) + "\n";
  meta +=
      "nogood_entries " + std::to_string(caches.NoGoodEntryCount()) + "\n";
  records.push_back(std::move(meta));

  std::string epochs = "section epochs\n";
  for (const auto& [name, epoch] : registry.Epochs()) {
    epochs += epoch.ToHex() + " " + name + "\n";
  }
  records.push_back(std::move(epochs));

  records.push_back("section nogoods\n" + caches.SerializeNoGoods());
  records.push_back("section responses\n" +
                    caches.SerializeResponses(options.max_response_entries));
  return records;
}

Result<SnapshotRestore> LoadSnapshotRecords(
    const std::vector<std::string>& records, ServiceCaches* caches) {
  if (records.empty()) {
    return Status::ParseError("snapshot has no meta record");
  }
  std::string_view meta = records[0];
  if (NextLine(&meta) != "olapdc-snapshot v1") {
    return Status::ParseError(
        "snapshot meta record must start with \"olapdc-snapshot v1\"");
  }
  SnapshotRestore restore;
  if (!ParseKeyedU64(NextLine(&meta), "seq ", &restore.seq) ||
      !ParseKeyedU64(NextLine(&meta), "nogood_entries ",
                     &restore.nogood_entries)) {
    return Status::ParseError("snapshot meta record malformed");
  }

  // Every record past the meta is an independent section; a torn tail
  // already removed trailing ones, and a malformed survivor is skipped
  // so one bad section never takes down the rest of recovery.
  for (size_t i = 1; i < records.size(); ++i) {
    std::string_view rest = records[i];
    const std::string_view header = NextLine(&rest);
    if (header == "section epochs") {
      std::vector<std::pair<std::string, Fingerprint128>> epochs;
      bool ok = true;
      while (!rest.empty()) {
        const std::string_view line = NextLine(&rest);
        if (line.empty()) continue;
        Fingerprint128 epoch;
        if (line.size() < 34 || line[32] != ' ' ||
            !Fingerprint128::FromHex(line.substr(0, 32), &epoch)) {
          ok = false;
          break;
        }
        epochs.emplace_back(std::string(line.substr(33)), epoch);
      }
      if (ok) {
        restore.epochs = std::move(epochs);
        restore.loaded_epochs = true;
      }
    } else if (header == "section nogoods") {
      if (caches->LoadNoGoods(rest).ok()) restore.loaded_nogoods = true;
    } else if (header == "section responses") {
      if (caches->LoadResponses(rest).ok()) restore.loaded_responses = true;
    }
    // Unknown section headers are forward compatibility: skipped.
  }
  return restore;
}

}  // namespace olapdc::service
