// Unit and property tests for the bit-manipulation kernels every encoder
// is built from.
#include "common/bitops.hpp"

#include <array>
#include <bit>
#include <vector>
#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace nvmenc {
namespace {

TEST(Bitops, PopcountBasics) {
  EXPECT_EQ(popcount(0u), 0u);
  EXPECT_EQ(popcount(1u), 1u);
  EXPECT_EQ(popcount(~u64{0}), 64u);
  EXPECT_EQ(popcount(0xF0F0F0F0F0F0F0F0ull), 32u);
}

// popcount is an inline SWAR count unless the build targets POPCNT; it
// must agree with std::popcount everywhere and stay usable in constant
// expressions.
static_assert(popcount(0) == 0 && popcount(~u64{0}) == 64 &&
              popcount(0x8000000000000001ull) == 2);
static_assert(byte_popcounts(0xFF0F030100000000ull) == 0x0804020100000000ull);

TEST(Bitops, PopcountMatchesStdOnEdgeValues) {
  std::vector<u64> edges{0, ~u64{0}, 0x5555555555555555ull,
                         0xAAAAAAAAAAAAAAAAull, 0x3333333333333333ull,
                         0x0F0F0F0F0F0F0F0Full, 0x00FF00FF00FF00FFull,
                         0xFFFFFFFF00000000ull, 0x8000000000000001ull};
  for (usize i = 0; i < 64; ++i) {
    edges.push_back(u64{1} << i);
    edges.push_back(~(u64{1} << i));
    edges.push_back(low_mask(i));
  }
  for (const u64 x : edges) {
    EXPECT_EQ(popcount(x), static_cast<usize>(std::popcount(x))) << x;
  }
}

TEST(Bitops, PopcountMatchesStdOnRandomWords) {
  Xoshiro256 rng{0x9090};
  for (int i = 0; i < 100'000; ++i) {
    // Mix dense, sparse (AND of draws) and very dense (OR of draws) words.
    u64 x = rng.next();
    if (i % 3 == 1) x &= rng.next() & rng.next();
    if (i % 3 == 2) x |= rng.next() | rng.next();
    ASSERT_EQ(popcount(x), static_cast<usize>(std::popcount(x))) << x;
    const u64 bytes = byte_popcounts(x);
    for (usize b = 0; b < 8; ++b) {
      ASSERT_EQ((bytes >> (8 * b)) & 0xFF,
                static_cast<u64>(std::popcount((x >> (8 * b)) & 0xFF)));
    }
  }
}

TEST(Bitops, HammingWords) {
  EXPECT_EQ(hamming(u64{0}, u64{0}), 0u);
  EXPECT_EQ(hamming(u64{0}, ~u64{0}), 64u);
  EXPECT_EQ(hamming(0b1010u, 0b0101u), 4u);
}

TEST(Bitops, HammingSpans) {
  const std::array<u64, 3> a{0, ~u64{0}, 0xFFull};
  const std::array<u64, 3> b{0, 0, 0x0Full};
  EXPECT_EQ(hamming(std::span<const u64>{a}, std::span<const u64>{b}),
            64u + 4u);
}

TEST(Bitops, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(8), 0xFFu);
  EXPECT_EQ(low_mask(64), ~u64{0});
}

TEST(Bitops, GetSetFlipBit) {
  std::array<u64, 2> words{0, 0};
  set_bit(std::span<u64>{words}, 65, true);
  EXPECT_TRUE(get_bit(words, 65));
  EXPECT_EQ(words[1], 2u);
  flip_bit(std::span<u64>{words}, 65);
  EXPECT_FALSE(get_bit(words, 65));
  set_bit(std::span<u64>{words}, 0, true);
  set_bit(std::span<u64>{words}, 0, false);
  EXPECT_EQ(words[0], 0u);
}

TEST(Bitops, ExtractDepositWithinWord) {
  std::array<u64, 2> words{0x123456789ABCDEF0ull, 0};
  EXPECT_EQ(extract_bits(words, 4, 8), 0xEFu);
  deposit_bits(std::span<u64>{words}, 4, 8, 0x55);
  EXPECT_EQ(extract_bits(words, 4, 8), 0x55u);
  EXPECT_EQ(extract_bits(words, 0, 4), 0x0u);  // neighbours untouched
  EXPECT_EQ(extract_bits(words, 12, 4), 0xDu);
}

TEST(Bitops, ExtractDepositAcrossWordBoundary) {
  std::array<u64, 2> words{~u64{0}, 0};
  EXPECT_EQ(extract_bits(words, 60, 8), 0x0Fu);
  deposit_bits(std::span<u64>{words}, 60, 8, 0xAB);
  EXPECT_EQ(extract_bits(words, 60, 8), 0xABu);
  EXPECT_EQ(words[1] & 0xFu, 0xAu);
}

TEST(Bitops, DepositMasksValue) {
  std::array<u64, 1> words{0};
  deposit_bits(std::span<u64>{words}, 0, 4, 0xFFFF);  // only low 4 bits land
  EXPECT_EQ(words[0], 0xFu);
}

TEST(Bitops, ExtractDepositFull64) {
  std::array<u64, 2> words{0, 0};
  deposit_bits(std::span<u64>{words}, 32, 64, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(extract_bits(words, 32, 64), 0xDEADBEEFCAFEF00Dull);
}

TEST(Bitops, HammingRange) {
  std::array<u64, 2> a{0, 0};
  std::array<u64, 2> b{~u64{0}, ~u64{0}};
  EXPECT_EQ(hamming_range(a, b, 0, 128), 128u);
  EXPECT_EQ(hamming_range(a, b, 60, 8), 8u);
  EXPECT_EQ(hamming_range(a, a, 60, 8), 0u);
}

TEST(Bitops, FlipRange) {
  std::array<u64, 2> words{0, 0};
  flip_range(std::span<u64>{words}, 60, 8);
  EXPECT_EQ(words[0], 0xFull << 60);
  EXPECT_EQ(words[1], 0xFull);
  flip_range(std::span<u64>{words}, 60, 8);
  EXPECT_EQ(words[0], 0u);
  EXPECT_EQ(words[1], 0u);
}

TEST(Bitops, FloorPow2) {
  EXPECT_EQ(floor_pow2(1), 1u);
  EXPECT_EQ(floor_pow2(2), 2u);
  EXPECT_EQ(floor_pow2(3), 2u);
  EXPECT_EQ(floor_pow2(31), 16u);
  EXPECT_EQ(floor_pow2(32), 32u);
  // 0 has no power of two below it; the defined result is 0 (the naive
  // `1 << (bit_width(0) - 1)` would shift by an out-of-range amount).
  EXPECT_EQ(floor_pow2(0), 0u);
  static_assert(floor_pow2(0) == 0);  // must also be constant-evaluable
}

TEST(Bitops, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

// Property sweep: extract(deposit(x)) == x at every offset/length.
class ExtractDepositRoundTrip
    : public ::testing::TestWithParam<std::tuple<usize, usize>> {};

TEST_P(ExtractDepositRoundTrip, RoundTrips) {
  const auto [pos, len] = GetParam();
  Xoshiro256 rng{pos * 131 + len};
  for (int iter = 0; iter < 50; ++iter) {
    std::array<u64, 4> words{rng.next(), rng.next(), rng.next(), rng.next()};
    const std::array<u64, 4> before = words;
    const u64 value = rng.next() & low_mask(len);
    deposit_bits(std::span<u64>{words}, pos, len, value);
    EXPECT_EQ(extract_bits(words, pos, len), value);
    // Bits outside [pos, pos+len) are untouched.
    for (usize b = 0; b < 256; ++b) {
      if (b >= pos && b < pos + len) continue;
      EXPECT_EQ(get_bit(words, b), get_bit(before, b)) << "bit " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndLengths, ExtractDepositRoundTrip,
    ::testing::Combine(::testing::Values<usize>(0, 1, 17, 63, 64, 100, 190),
                       ::testing::Values<usize>(1, 2, 7, 15, 32, 63, 64)));

// Property: hamming_range equals a naive per-bit count.
TEST(Bitops, HammingRangeMatchesNaive) {
  Xoshiro256 rng{7};
  for (int iter = 0; iter < 200; ++iter) {
    std::array<u64, 4> a{rng.next(), rng.next(), rng.next(), rng.next()};
    std::array<u64, 4> b{rng.next(), rng.next(), rng.next(), rng.next()};
    const usize pos = static_cast<usize>(rng.next_below(200));
    const usize len = 1 + static_cast<usize>(rng.next_below(56));
    usize naive = 0;
    for (usize i = pos; i < pos + len; ++i) {
      naive += get_bit(a, i) != get_bit(b, i);
    }
    EXPECT_EQ(hamming_range(a, b, pos, len), naive);
  }
}

// The head/body/tail decomposition of hamming_range and flip_range has
// distinct code paths for word-aligned starts, multi-word bodies, and
// partial tails; sweep every (pos, len) shape that selects a different
// combination, with the word-sized body lengths the encoders actually use.
class RangeShapes : public ::testing::TestWithParam<std::tuple<usize, usize>> {
};

TEST_P(RangeShapes, HammingRangeMatchesNaive) {
  const auto [pos, len] = GetParam();
  Xoshiro256 rng{pos * 977 + len};
  for (int iter = 0; iter < 20; ++iter) {
    std::array<u64, 5> a{rng.next(), rng.next(), rng.next(), rng.next(),
                         rng.next()};
    std::array<u64, 5> b{rng.next(), rng.next(), rng.next(), rng.next(),
                         rng.next()};
    usize naive = 0;
    for (usize i = pos; i < pos + len; ++i) {
      naive += get_bit(a, i) != get_bit(b, i);
    }
    EXPECT_EQ(hamming_range(a, b, pos, len), naive)
        << "pos=" << pos << " len=" << len;
  }
}

TEST_P(RangeShapes, FlipRangeMatchesNaive) {
  const auto [pos, len] = GetParam();
  Xoshiro256 rng{pos * 1009 + len};
  for (int iter = 0; iter < 20; ++iter) {
    std::array<u64, 5> words{rng.next(), rng.next(), rng.next(), rng.next(),
                             rng.next()};
    const std::array<u64, 5> before = words;
    flip_range(std::span<u64>{words}, pos, len);
    for (usize b = 0; b < 320; ++b) {
      const bool inside = b >= pos && b < pos + len;
      EXPECT_EQ(get_bit(words, b), get_bit(before, b) != inside)
          << "pos=" << pos << " len=" << len << " bit " << b;
    }
    // Involution: flipping again restores the original.
    flip_range(std::span<u64>{words}, pos, len);
    EXPECT_EQ(words, before) << "pos=" << pos << " len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlignedAndStraddling, RangeShapes,
    ::testing::Values(
        // Word-aligned starts: tail-only, exact single/multi word, and
        // whole-words-plus-tail (the SAE segment shapes at each level).
        std::tuple<usize, usize>{0, 1}, std::tuple<usize, usize>{0, 63},
        std::tuple<usize, usize>{0, 64}, std::tuple<usize, usize>{0, 65},
        std::tuple<usize, usize>{0, 128}, std::tuple<usize, usize>{64, 64},
        std::tuple<usize, usize>{64, 192}, std::tuple<usize, usize>{128, 130},
        // Unaligned starts: head-only (within one word), head reaching
        // exactly to the boundary, head+tail, and head+body+tail.
        std::tuple<usize, usize>{1, 1}, std::tuple<usize, usize>{5, 20},
        std::tuple<usize, usize>{60, 4}, std::tuple<usize, usize>{60, 5},
        std::tuple<usize, usize>{63, 2}, std::tuple<usize, usize>{63, 66},
        std::tuple<usize, usize>{1, 63}, std::tuple<usize, usize>{33, 64},
        std::tuple<usize, usize>{37, 200}, std::tuple<usize, usize>{191, 129}));

// extract_bits has a dedicated word-aligned fast path; confirm it agrees
// with the cross-boundary general case at the seam.
TEST(Bitops, ExtractBitsAlignedFastPath) {
  Xoshiro256 rng{11};
  for (int iter = 0; iter < 50; ++iter) {
    std::array<u64, 3> words{rng.next(), rng.next(), rng.next()};
    for (const usize pos : {usize{0}, usize{64}, usize{128}}) {
      for (const usize len : {usize{1}, usize{5}, usize{32}, usize{63},
                              usize{64}}) {
        u64 naive = 0;
        for (usize i = 0; i < len; ++i) {
          naive |= u64{get_bit(words, pos + i)} << i;
        }
        EXPECT_EQ(extract_bits(words, pos, len), naive)
            << "pos=" << pos << " len=" << len;
      }
    }
  }
}

}  // namespace
}  // namespace nvmenc
