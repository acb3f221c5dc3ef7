#include "core/nogood.h"

#include <vector>

namespace olapdc {

namespace {

/// The search-key words every node signature and marker starts with.
Fingerprinter KeyPrefix(int num_categories, int root, uint32_t option_bits,
                        uint64_t theory_salt) {
  Fingerprinter fp;
  fp.Mix(static_cast<uint64_t>(num_categories));
  fp.Mix(static_cast<uint64_t>(root));
  fp.Mix(static_cast<uint64_t>(option_bits));
  fp.Mix(theory_salt);
  return fp;
}

}  // namespace

Fingerprint128 NoGoodStore::Signature(const Subhierarchy& g,
                                      uint32_t option_bits,
                                      uint64_t theory_salt) {
  // The signature covers exactly what determines the subtree: the
  // universe size, the root, the category set, the edge set, the
  // semantic option bits, and the theory salt. top() and Below() are
  // derived from the edges, so mixing them would add cost without
  // discrimination.
  Fingerprinter fp =
      KeyPrefix(g.num_categories(), g.root(), option_bits, theory_salt);
  g.categories().ForEach([&](int c) {
    fp.Mix(0x8000000000000000ull | static_cast<uint64_t>(c));
    g.Out(c).ForEach([&](int d) {
      fp.Mix((static_cast<uint64_t>(c) << 32) | static_cast<uint64_t>(d));
    });
  });
  return fp.Final();
}

Fingerprint128 NoGoodStore::Marker(int num_categories, int root,
                                   uint32_t option_bits,
                                   uint64_t theory_salt) {
  // A node signature's fifth word is 0x8000000000000000 | c for its
  // lowest category c < num_categories; all-ones is never such a word.
  return KeyPrefix(num_categories, root, option_bits, theory_salt)
      .Mix(~uint64_t{0})
      .Final();
}

void NoGoodStore::Learn(const Fingerprint128& marker,
                        const std::vector<Fingerprint128>& sigs) {
  if (sigs.empty()) return;
  for (const Fingerprint128& sig : sigs) Record(sig);
  // Last, so the marker is its shard's most recent entry.
  Record(marker);
}

}  // namespace olapdc
