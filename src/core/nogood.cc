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

std::string NoGoodStore::Serialize() const {
  std::vector<Fingerprint128> entries;
  cache_.ForEach([&](const Fingerprint128& sig, const bool&) {
    entries.push_back(sig);
  });
  std::string out = "dimsat-nogoods v1\n";
  out += "entries " + std::to_string(entries.size()) + "\n";
  out.reserve(out.size() + entries.size() * 33);
  for (const Fingerprint128& sig : entries) {
    out += sig.ToHex();
    out += '\n';
  }
  return out;
}

namespace {

bool ParseHex128(std::string_view hex, Fingerprint128* out) {
  if (hex.size() != 32) return false;
  uint64_t words[2] = {0, 0};
  for (int i = 0; i < 32; ++i) {
    const char c = hex[static_cast<size_t>(i)];
    uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    words[i / 16] = (words[i / 16] << 4) | nibble;
  }
  out->hi = words[0];
  out->lo = words[1];
  return true;
}

/// Consumes the next line (without the newline) from `rest`.
std::string_view NextLine(std::string_view* rest) {
  const size_t eol = rest->find('\n');
  std::string_view line;
  if (eol == std::string_view::npos) {
    line = *rest;
    *rest = std::string_view();
  } else {
    line = rest->substr(0, eol);
    *rest = rest->substr(eol + 1);
  }
  return line;
}

}  // namespace

Status NoGoodStore::Load(std::string_view text, size_t* consumed) {
  std::string_view rest = text;
  if (consumed != nullptr) *consumed = 0;
  if (NextLine(&rest) != "dimsat-nogoods v1") {
    return Status::ParseError(
        "no-good store must start with \"dimsat-nogoods v1\"");
  }
  std::string_view count_line = NextLine(&rest);
  constexpr std::string_view kEntries = "entries ";
  if (count_line.substr(0, kEntries.size()) != kEntries) {
    return Status::ParseError("no-good store missing \"entries N\" line");
  }
  const std::string_view digits = count_line.substr(kEntries.size());
  if (digits.empty()) {
    return Status::ParseError("malformed entry count in no-good store");
  }
  uint64_t expected = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return Status::ParseError("malformed entry count in no-good store");
    }
    expected = expected * 10 + static_cast<uint64_t>(c - '0');
    // Each entry is a 33-byte line; a count past this cap cannot be a
    // store we wrote (and would only make a corrupt file loop longer).
    if (expected > (1u << 27)) {
      return Status::ParseError("implausible entry count in no-good store");
    }
  }
  uint64_t loaded = 0;
  while (loaded < expected) {
    std::string_view line = NextLine(&rest);
    Fingerprint128 sig;
    if (!ParseHex128(line, &sig)) {
      return Status::ParseError("malformed signature at no-good entry " +
                                std::to_string(loaded));
    }
    Record(sig);
    ++loaded;
  }
  if (consumed != nullptr) *consumed = text.size() - rest.size();
  return Status::OK();
}

}  // namespace olapdc
