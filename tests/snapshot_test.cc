// service/snapshot.h: the olapdc-snapshot v2 build/restore cycle over
// real durable files, its per-record salvage (a tear or a malformed
// record costs that record, never a neighbour), the refusal of a v1
// file, the warm-set cap, a restored store pruning a repeat search,
// and a build racing cache writers.

#include "service/snapshot.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cache_shard.h"
#include "common/status.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "core/nogood.h"
#include "gtest/gtest.h"
#include "io/durable_file.h"
#include "service/service_caches.h"
#include "tests/test_util.h"

namespace olapdc::service {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

Fingerprint128 Sig(uint64_t hi, uint64_t lo) {
  Fingerprint128 sig;
  sig.hi = hi;
  sig.lo = lo;
  return sig;
}

/// Keys and bodies are opaque bytes: this pair holds '\n' and NUL.
const std::string kOddKey("key\nwith\0NUL", 12);
const std::string kOddBody("body\0\n", 6);

/// Caches warmed with two no-good stores, one of them holding a
/// search-key marker, and two responses.
struct Fixture {
  ServiceCaches caches;
  const Fingerprint128 e1 = FingerprintBytes("epoch-1");
  const Fingerprint128 e2 = FingerprintBytes("epoch-2");
  const Fingerprint128 marker = NoGoodStore::Marker(7, /*root=*/2, 0);

  Fixture() {
    caches.NoGoodsFor(e1)->Learn(marker,
                                 {Sig(0x1111, 0x2222), Sig(0x3333, 0x4444)});
    caches.NoGoodsFor(e2)->Record(Sig(0x5555, 0x6666));
    caches.InsertResponse("check/e1/s/2", "{\"satisfiable\": true}");
    caches.InsertResponse(kOddKey, kOddBody);
  }
};

/// Everything `caches` holds, order-free: each live store, each of its
/// signatures, and each response.
std::vector<std::string> Contents(const ServiceCaches& caches) {
  std::vector<std::string> out;
  for (const auto& [epoch, store] : caches.NoGoodStores()) {
    out.push_back("store " + epoch.ToHex());
    store->ForEach([&, epoch = epoch](const Fingerprint128& sig) {
      out.push_back("nogood " + epoch.ToHex() + " " + sig.ToHex());
    });
  }
  caches.ForEachResponse([&](const std::string& key, const std::string& body) {
    out.push_back("response " + key + " -> " + body);
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// The index of the first record starting with `prefix`.
size_t IndexOf(const std::vector<std::string>& records,
               const std::string& prefix) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].rfind(prefix, 0) == 0) return i;
  }
  ADD_FAILURE() << "no record starts with " << prefix;
  return 0;
}

TEST(SnapshotTest, EveryStoreAndResponseRoundTrips) {
  Fixture fix;
  const std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/42, fix.caches);
  // meta, a record per store, a record per response
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0], "olapdc-snapshot v2\nseq 42\n");
  EXPECT_EQ(records[IndexOf(records, "response 12 6\n")],
            "response 12 6\n" + kOddKey + kOddBody);

  ServiceCaches fresh;
  ASSERT_OK_AND_ASSIGN(uint64_t seq, LoadSnapshotRecords(records, &fresh));
  EXPECT_EQ(seq, 42u);
  EXPECT_EQ(Contents(fresh), Contents(fix.caches));
  EXPECT_EQ(Contents(fresh).size(), 2u + 4u + 2u);
  EXPECT_TRUE(fresh.NoGoodsFor(fix.e1)->Probe(fix.marker));
  EXPECT_FALSE(fresh.NoGoodsFor(fix.e2)->Probe(Sig(0x1111, 0x2222)));
  std::string body;
  ASSERT_TRUE(fresh.LookupResponse(kOddKey, &body));
  EXPECT_EQ(body, kOddBody);
}

TEST(SnapshotTest, TearInsideARecordDropsItAndTheRecordsAfter) {
  Fixture fix;
  const std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/9, fix.caches);
  const std::string path = ::testing::TempDir() + "/snapshot_torn.olapdc";
  ASSERT_OK(WriteDurableFile(path, records));
  const std::string whole = ReadFileOrDie(path);

  // Each record is framed by a length word and a CRC word (8 bytes),
  // so record i's frame starts where records i.. end the file.
  size_t frame_start = whole.size();
  for (size_t i = records.size() - 1; i >= 1; --i) {
    frame_start -= 8 + records[i].size();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << whole.substr(0, frame_start + 8 + records[i].size() / 2);
    }
    ASSERT_OK_AND_ASSIGN(DurableReadResult read, ReadDurableFile(path));
    EXPECT_EQ(read.torn_tail_truncations, 1u);
    ASSERT_EQ(read.records.size(), i);

    ServiceCaches torn, prefix;
    ASSERT_OK_AND_ASSIGN(uint64_t seq,
                         LoadSnapshotRecords(read.records, &torn));
    EXPECT_EQ(seq, 9u);
    ASSERT_OK(LoadSnapshotRecords(
                  std::vector<std::string>(records.begin(),
                                           records.begin() + i),
                  &prefix)
                  .status());
    EXPECT_EQ(Contents(torn), Contents(prefix)) << "torn in record " << i;
    if (i == 1) {
      EXPECT_TRUE(Contents(torn).empty());
    }
    if (i == records.size() - 1) {
      EXPECT_EQ(torn.NoGoodEntryCount(), 4u);
      EXPECT_EQ(torn.ResponseStats().entries, 1u);
    }
  }
}

TEST(SnapshotTest, MalformedIntactRecordIsSkippedWhole) {
  Fixture fix;
  const std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/7, fix.caches);
  const size_t store =
      IndexOf(records, "nogoods " + fix.e1.ToHex() + " 3\n");
  const std::string sig_lines =
      records[store].substr(records[store].find('\n') + 1);
  ASSERT_EQ(sig_lines.size(), 3u * 33u);
  std::string bad_line = sig_lines;
  bad_line[2 * 33 + 5] = 'g';
  const size_t response = IndexOf(records, "response 12 6\n");
  struct Case {
    const char* what;
    size_t index;
    std::string record;
  };
  const Case cases[] = {
      {"bad epoch hex", store,
       "nogoods " + std::string(32, 'z') + " 3\n" + sig_lines},
      {"bad signature line", store,
       "nogoods " + fix.e1.ToHex() + " 3\n" + bad_line},
      {"count above the lines", store,
       "nogoods " + fix.e1.ToHex() + " 4\n" + sig_lines},
      {"count below the lines", store,
       "nogoods " + fix.e1.ToHex() + " 2\n" + sig_lines},
      {"no count", store, "nogoods " + fix.e1.ToHex() + "\n" + sig_lines},
      {"key length above the payload", response,
       "response 13 6\n" + kOddKey + kOddBody},
      {"body length below the payload", response,
       "response 12 5\n" + kOddKey + kOddBody},
      {"non-numeric length", response,
       "response 12 six\n" + kOddKey + kOddBody},
  };
  for (const Case& c : cases) {
    std::vector<std::string> mangled = records;
    mangled[c.index] = c.record;
    std::vector<std::string> without = records;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(c.index));
    ServiceCaches got, want;
    ASSERT_OK(LoadSnapshotRecords(mangled, &got).status());
    ASSERT_OK(LoadSnapshotRecords(without, &want).status());
    EXPECT_EQ(Contents(got), Contents(want)) << c.what;
    // The records around it loaded; nothing of it did.
    EXPECT_EQ(got.NoGoodEntryCount(), c.index == store ? 1u : 4u) << c.what;
    EXPECT_EQ(got.ResponseStats().entries, c.index == store ? 2u : 1u)
        << c.what;
  }
}

TEST(SnapshotTest, UnknownRecordKindIsSkipped) {
  Fixture fix;
  std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/7, fix.caches);
  records.insert(records.begin() + 2, "future-layer 1 2\nopaque bytes\n");
  records.insert(records.begin() + 1, "headerless");

  ServiceCaches fresh;
  ASSERT_OK(LoadSnapshotRecords(records, &fresh).status());
  EXPECT_EQ(Contents(fresh), Contents(fix.caches));
}

TEST(SnapshotTest, MissingOrMalformedMetaRecordLoadsNothing) {
  Fixture fix;
  const std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/7, fix.caches);
  std::vector<std::vector<std::string>> inputs;
  inputs.push_back({});
  inputs.emplace_back(records.begin() + 1, records.end());  // meta lost
  for (const char* meta : {"not a snapshot\n", "olapdc-snapshot v2\n",
                           "olapdc-snapshot v2\nseq x\n"}) {
    inputs.push_back(records);
    inputs.back()[0] = meta;
  }
  for (const std::vector<std::string>& input : inputs) {
    ServiceCaches fresh;
    EXPECT_EQ(LoadSnapshotRecords(input, &fresh).status().code(),
              StatusCode::kParseError);
    EXPECT_TRUE(Contents(fresh).empty());
  }
}

// A v1 snapshot as its writer laid it out: the location schema's epoch
// with two no-goods, and one cached response (seq 42).
TEST(SnapshotTest, V1SnapshotLoadsNothing) {
  const std::vector<std::string> v1 = {
      "olapdc-snapshot v1\nseq 42\nnogood_entries 2\n",
      "section epochs\n0969553e510cfcb641ea811b2d8ae78c loc\n",
      "section nogoods\nolapdc-nogood-stores v1\nstores 1\n"
      "epoch 0969553e510cfcb641ea811b2d8ae78c\ndimsat-nogoods v1\n"
      "entries 2\n00000000000033330000000000004444\n"
      "00000000000011110000000000002222\n",
      "section responses\nolapdc-responses v1\nentries 1\n42 21\n"
      "check|0969553e510cfcb641ea811b2d8ae78c|loc{\"satisfiable\": true}\n",
  };
  ServiceCaches fresh;
  EXPECT_EQ(LoadSnapshotRecords(v1, &fresh).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(fresh.NoGoodEntryCount(), 0u);
  EXPECT_EQ(fresh.ResponseStats().entries, 0u);
}

TEST(SnapshotTest, WarmResponseSetIsCapped) {
  ServiceCaches caches;
  for (size_t i = 0; i < kMaxSnapshotResponses + 10; ++i) {
    caches.InsertResponse("key" + std::to_string(i), "body");
  }
  ASSERT_EQ(caches.ResponseStats().entries, kMaxSnapshotResponses + 10);
  const std::vector<std::string> records =
      BuildSnapshotRecords(/*seq=*/1, caches);
  EXPECT_EQ(records.size(), 1 + kMaxSnapshotResponses);

  ServiceCaches fresh;
  ASSERT_OK(LoadSnapshotRecords(records, &fresh).status());
  EXPECT_EQ(fresh.ResponseStats().entries, kMaxSnapshotResponses);
}

// A warm restart keeps its learned pruning: the restored store, search
// markers included, prunes a rerun of every search that filled it, and
// changes no answer.
TEST(SnapshotTest, RestoredStorePrunesARepeatSearch) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  const HierarchySchema& h = ds.hierarchy();
  const Fingerprint128 epoch = FingerprintBytes("location");
  auto models = [&](const DimsatResult& r) {
    std::vector<std::string> out;
    for (const FrozenDimension& f : r.frozen) out.push_back(f.ToString(h));
    std::sort(out.begin(), out.end());
    return out;
  };

  ServiceCaches caches;
  const std::shared_ptr<NoGoodStore> learning = caches.NoGoodsFor(epoch);
  DimsatOptions options;
  options.enumerate_all = true;
  options.nogoods = learning.get();
  std::vector<std::vector<std::string>> cold;
  for (CategoryId c = 0; c < h.num_categories(); ++c) {
    const DimsatResult r = RunDimsat(ds, c, options);
    ASSERT_OK(r.status);
    cold.push_back(models(r));
  }

  const std::string path = ::testing::TempDir() + "/snapshot_warm.olapdc";
  ASSERT_OK(WriteDurableFile(path, BuildSnapshotRecords(/*seq=*/1, caches)));
  ASSERT_OK_AND_ASSIGN(DurableReadResult read, ReadDurableFile(path));
  ServiceCaches restored;
  ASSERT_OK(LoadSnapshotRecords(read.records, &restored).status());
  const std::shared_ptr<NoGoodStore> store = restored.NoGoodsFor(epoch);
  EXPECT_EQ(store->size(), learning->size());

  options.nogoods = store.get();
  uint64_t prunes = 0;
  for (CategoryId c = 0; c < h.num_categories(); ++c) {
    const DimsatResult r = RunDimsat(ds, c, options);
    ASSERT_OK(r.status);
    prunes += r.stats.nogood_prunes;
    EXPECT_EQ(models(r), cold[static_cast<size_t>(c)]) << h.CategoryName(c);
  }
  EXPECT_GT(prunes, 0u);
}

// The daemon's snapshot thread builds while request workers write: two
// writers insert responses and record no-goods across six epochs (so
// NoGoodsFor ages stores out mid-build), a third thread builds. Run
// under TSan in CI.
TEST(SnapshotTest, BuildsWhileCachesAreWritten) {
  ServiceCaches caches;
  std::atomic<bool> writers_done{false};
  std::vector<std::string> last;
  uint64_t builds = 0;
  std::thread builder([&] {
    do {
      last = BuildSnapshotRecords(++builds, caches);
    } while (!writers_done.load());
  });
  auto writer = [&](int id) {
    for (int i = 0; i < 3000; ++i) {
      const std::string name = std::to_string(id) + "/" + std::to_string(i);
      caches.NoGoodsFor(FingerprintBytes("epoch-" + std::to_string(i % 6)))
          ->Record(FingerprintBytes(name));
      caches.InsertResponse("key-" + name, "body-" + name);
    }
  };
  std::thread w1(writer, 1);
  std::thread w2(writer, 2);
  w1.join();
  w2.join();
  writers_done.store(true);
  builder.join();

  // Every record of the last build loads.
  uint64_t signatures = 0, responses = 0;
  for (size_t i = 1; i < last.size(); ++i) {
    if (last[i].rfind("nogoods ", 0) == 0) {
      signatures += static_cast<uint64_t>(
                        std::count(last[i].begin(), last[i].end(), '\n')) -
                    1;
    } else {
      ++responses;
    }
  }
  ServiceCaches fresh;
  ASSERT_OK_AND_ASSIGN(uint64_t seq, LoadSnapshotRecords(last, &fresh));
  EXPECT_EQ(seq, builds);
  EXPECT_EQ(fresh.NoGoodEntryCount(), signatures);
  EXPECT_EQ(fresh.ResponseStats().entries, responses);
}

}  // namespace
}  // namespace olapdc::service
