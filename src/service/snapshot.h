// Snapshot plane: olapdcd's periodic crash-durability checkpoint
// (docs/robustness.md "Crash durability & recovery"). This module is
// the only one that knows the persisted layout.
//
// A snapshot is a durable file (io/durable_file.h) whose records are
// the `olapdc-snapshot v2` layout, in this order:
//
//   meta:      "olapdc-snapshot v2\nseq N\n"
//   no-goods:  "nogoods <epoch-hex> <count>\n" then <count> lines of
//              one 32-hex-digit signature each, search-key markers
//              included — one record per live no-good store
//   response:  "response <key-bytes> <body-bytes>\n" then the raw key
//              and body — one record per warm response, at most
//              kMaxSnapshotResponses
//
// The durable file's CRC frame is the only framing. Each record states
// the size of what it holds and is parsed whole before anything from
// it is inserted, so a record that does not match its stated size is
// skipped whole, and no count read from the file sizes an allocation
// the record's bytes do not back. A kill -9 mid-write (or a lost tail
// page) costs only the records from the tear on; the no-good stores
// come first, so a tear in the response set keeps every one of them.
//
// Epoch discipline travels inside the records: a no-good store names
// its content epoch and a response key embeds it, so a snapshot taken
// before a schema change reloads harmlessly cold.

#ifndef OLAPDC_SERVICE_SNAPSHOT_H_
#define OLAPDC_SERVICE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "service/service_caches.h"

namespace olapdc::service {

/// Responses a snapshot keeps: the first this many the response cache
/// visits.
inline constexpr size_t kMaxSnapshotResponses = 4096;

/// Builds the `olapdc-snapshot v2` record sequence for
/// WriteDurableFile. `seq` is the monotone snapshot sequence number
/// (the daemon's, not the file's). Safe while other threads use
/// `caches`.
std::vector<std::string> BuildSnapshotRecords(uint64_t seq,
                                              const ServiceCaches& caches);

/// Applies the records of a recovered snapshot file to `caches` and
/// returns the snapshot's seq. A record past the meta record that is
/// malformed, does not match its stated size, or has an unknown kind is
/// skipped whole; the others still load. Fails with kParseError, and
/// loads nothing, only when record 0 is missing or is not an
/// `olapdc-snapshot v2` meta record.
Result<uint64_t> LoadSnapshotRecords(const std::vector<std::string>& records,
                                     ServiceCaches* caches);

}  // namespace olapdc::service

#endif  // OLAPDC_SERVICE_SNAPSHOT_H_
