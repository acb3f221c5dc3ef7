// Property tests for DynamicBitset (common/bitset.h): every word-loop
// operation, on the inline buffer or the heap, must agree with a
// std::vector<bool> reference model across randomized operation
// sequences and sizes straddling word and small-buffer boundaries.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/bitset.h"

namespace olapdc {
namespace {

/// Reference model: the same bit-level semantics, one bit at a time.
struct RefBits {
  explicit RefBits(int n) : bits(n, false) {}
  std::vector<bool> bits;

  void Or(const RefBits& o) {
    for (size_t i = 0; i < bits.size(); ++i) bits[i] = bits[i] || o.bits[i];
  }
  void And(const RefBits& o) {
    for (size_t i = 0; i < bits.size(); ++i) bits[i] = bits[i] && o.bits[i];
  }
  void AndNot(const RefBits& o) {
    for (size_t i = 0; i < bits.size(); ++i) bits[i] = bits[i] && !o.bits[i];
  }
  bool AndNotAny(const RefBits& o) const {
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] && !o.bits[i]) return true;
    }
    return false;
  }
  bool Intersects(const RefBits& o) const {
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] && o.bits[i]) return true;
    }
    return false;
  }
  int Count() const {
    int c = 0;
    for (bool b : bits) c += b;
    return c;
  }
};

void ExpectSame(const DynamicBitset& got, const RefBits& want) {
  ASSERT_EQ(static_cast<size_t>(got.size()), want.bits.size());
  for (int i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.test(i), want.bits[i]) << "bit " << i;
  }
  EXPECT_EQ(got.count(), want.Count());
  EXPECT_EQ(got.any(), want.Count() > 0);
}

TEST(BitsetTest, RandomOpSequencesMatchReference) {
  std::mt19937_64 rng(20260808);
  // Sizes straddle word boundaries and the inline/heap small-buffer
  // boundary (kInlineWords * 64 = 512 bits).
  for (int n : {1, 63, 64, 65, 127, 128, 255, 256, 257, 320, 511, 512, 513,
                640, 1024}) {
    std::uniform_int_distribution<int> bit(0, n - 1);
    std::uniform_int_distribution<int> op(0, 6);
    DynamicBitset a(n), b(n);
    RefBits ra(n), rb(n);
    // Seed ~n/3 random bits on each side.
    for (int i = 0; i < n / 3 + 1; ++i) {
      int x = bit(rng), y = bit(rng);
      a.set(x);
      ra.bits[x] = true;
      b.set(y);
      rb.bits[y] = true;
    }
    for (int step = 0; step < 200; ++step) {
      switch (op(rng)) {
        case 0:
          a |= b;
          ra.Or(rb);
          break;
        case 1:
          a &= b;
          ra.And(rb);
          break;
        case 2:
          a -= b;
          ra.AndNot(rb);
          break;
        case 3: {
          int x = bit(rng);
          a.set(x);
          ra.bits[x] = true;
          break;
        }
        case 4: {
          int x = bit(rng);
          b.set(x);
          rb.bits[x] = true;
          break;
        }
        case 5: {
          int x = bit(rng);
          a.reset(x);
          ra.bits[x] = false;
          break;
        }
        default: {
          int x = bit(rng);
          b.set(x);
          rb.bits[x] = true;
          break;
        }
      }
      ASSERT_EQ(a.AndNotAny(b), ra.AndNotAny(rb)) << "n=" << n;
      ASSERT_EQ(a.IsSubsetOf(b), !ra.AndNotAny(rb)) << "n=" << n;
      ASSERT_EQ(a.Intersects(b), ra.Intersects(rb)) << "n=" << n;
      if (step % 20 == 0) {
        ExpectSame(a, ra);
        ExpectSame(b, rb);
      }
    }
    ExpectSame(a, ra);
    ExpectSame(b, rb);
  }
}

TEST(BitsetTest, FusedAndNotAnyAgreesWithMaterializedDifference) {
  std::mt19937_64 rng(99);
  for (int n : {64, 320, 512, 513, 2048}) {
    std::uniform_int_distribution<int> bit(0, n - 1);
    for (int trial = 0; trial < 50; ++trial) {
      DynamicBitset a(n), b(n);
      for (int i = 0; i < n / 4 + 1; ++i) {
        a.set(bit(rng));
        b.set(bit(rng));
      }
      DynamicBitset diff = a - b;
      EXPECT_EQ(a.AndNotAny(b), diff.any());
      EXPECT_EQ(a.IsSubsetOf(b), diff.none());
    }
  }
}

TEST(BitsetTest, SmallBufferBoundaryCopiesAndMoves) {
  // 512 bits is the last inline size, 513 the first heap size: copies,
  // moves, and assignments across the boundary must preserve content.
  for (int n : {511, 512, 513, 514}) {
    DynamicBitset a(n);
    for (int i = 0; i < n; i += 7) a.set(i);
    DynamicBitset copy(a);
    EXPECT_EQ(copy, a);
    DynamicBitset assigned;
    assigned = a;
    EXPECT_EQ(assigned, a);
    DynamicBitset moved(std::move(copy));
    EXPECT_EQ(moved, a);
    moved = std::move(assigned);
    EXPECT_TRUE(moved.test(0));
    EXPECT_EQ(moved.count(), a.count());
    // Hash is content-determined regardless of storage class.
    DynamicBitset rebuilt(n);
    for (int i = 0; i < n; i += 7) rebuilt.set(i);
    EXPECT_EQ(rebuilt.Hash(), a.Hash());
    EXPECT_EQ(rebuilt, a);
  }
}

TEST(BitsetTest, EqualityAndHashIgnoreTailGarbage) {
  // Partial-word sizes: operations must keep the unused high bits of
  // the last word clear, or equality/count would drift.
  for (int n : {1, 5, 65, 321, 519}) {
    DynamicBitset a(n), b(n);
    for (int i = 0; i < n; ++i) {
      a.set(i);
      b.set(i);
    }
    a -= b;
    EXPECT_EQ(a.count(), 0);
    EXPECT_TRUE(a.none());
    a |= b;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.Hash(), b.Hash());
    EXPECT_EQ(a.count(), n);
  }
}

}  // namespace
}  // namespace olapdc
