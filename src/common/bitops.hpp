// Bit-manipulation kernels used throughout the encoders.
//
// Everything here operates on plain u64 words or spans of them; the
// CacheLine and BitBuf value types build on these primitives. All functions
// are constexpr-friendly and branch-light — they sit on the innermost loop
// of every encoder.
#pragma once

#include <bit>
#include <span>

#include "common/types.hpp"

namespace nvmenc {

/// Per-byte set-bit counts of `x`: byte i of the result is the popcount of
/// byte i of `x` (0..8). The first three steps of the SWAR popcount; the
/// Flip-N-Write kernel compares these byte counts in parallel.
[[nodiscard]] constexpr u64 byte_popcounts(u64 x) noexcept {
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  return (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
}

/// Number of set bits in `x`. With the POPCNT instruction available this is
/// `std::popcount`; without it, `std::popcount` compiles to a call into
/// libgcc (`__popcountdi2`), so the count is done inline in SWAR form: the
/// byte counts above, summed into the top byte by one multiply.
[[nodiscard]] constexpr usize popcount(u64 x) noexcept {
#if defined(__POPCNT__)
  return static_cast<usize>(std::popcount(x));
#else
  return static_cast<usize>((byte_popcounts(x) * 0x0101010101010101ull) >> 56);
#endif
}

/// Hamming distance between two words: the bit flips incurred when the
/// stored word `a` is overwritten with `b` under differential write (DCW).
[[nodiscard]] constexpr usize hamming(u64 a, u64 b) noexcept {
  return popcount(a ^ b);
}

/// Hamming distance between two equally-sized word spans.
[[nodiscard]] inline usize hamming(std::span<const u64> a,
                                   std::span<const u64> b) noexcept {
  usize d = 0;
  const usize n = a.size() < b.size() ? a.size() : b.size();
  for (usize i = 0; i < n; ++i) d += hamming(a[i], b[i]);
  return d;
}

/// A mask with the low `n` bits set; n == 64 yields all ones, n == 0 zero.
[[nodiscard]] constexpr u64 low_mask(usize n) noexcept {
  return n >= 64 ? ~u64{0} : ((u64{1} << n) - 1);
}

/// Reads bit `pos` of a word array laid out little-endian (bit 0 = LSB of
/// word 0).
[[nodiscard]] constexpr bool get_bit(std::span<const u64> words,
                                     usize pos) noexcept {
  return (words[pos / 64] >> (pos % 64)) & 1u;
}

/// Writes bit `pos` of a word array.
constexpr void set_bit(std::span<u64> words, usize pos, bool value) noexcept {
  const u64 mask = u64{1} << (pos % 64);
  if (value) {
    words[pos / 64] |= mask;
  } else {
    words[pos / 64] &= ~mask;
  }
}

/// Flips bit `pos` of a word array.
constexpr void flip_bit(std::span<u64> words, usize pos) noexcept {
  words[pos / 64] ^= u64{1} << (pos % 64);
}

/// Extracts `len` (1..64) bits starting at bit `pos` from a word array.
[[nodiscard]] constexpr u64 extract_bits(std::span<const u64> words, usize pos,
                                         usize len) noexcept {
  const usize word = pos / 64;
  const usize off = pos % 64;
  if (off == 0) return words[word] & low_mask(len);  // word-aligned fast path
  u64 value = words[word] >> off;
  if (off + len > 64 && word + 1 < words.size()) {
    value |= words[word + 1] << (64 - off);
  }
  return value & low_mask(len);
}

/// Deposits the low `len` (1..64) bits of `value` at bit `pos` of a word
/// array, leaving surrounding bits untouched.
constexpr void deposit_bits(std::span<u64> words, usize pos, usize len,
                            u64 value) noexcept {
  const u64 masked = value & low_mask(len);
  const usize word = pos / 64;
  const usize off = pos % 64;
  words[word] &= ~(low_mask(len) << off);
  words[word] |= masked << off;
  if (off + len > 64 && word + 1 < words.size()) {
    const usize spill = off + len - 64;
    words[word + 1] &= ~low_mask(spill);
    words[word + 1] |= masked >> (64 - off);
  }
}

/// Hamming distance restricted to bits [pos, pos + len) of two word arrays.
///
/// Segments handed out by the encoders are 64-bit-aligned whenever
/// `seg_bits % 64 == 0` (the common case for READ's pooled segments), so
/// the loop body is a straight word-XOR-popcount there; an unaligned head
/// and a short tail are peeled off with masks, never re-extracting a bit
/// twice.
[[nodiscard]] inline usize hamming_range(std::span<const u64> a,
                                         std::span<const u64> b, usize pos,
                                         usize len) noexcept {
  usize d = 0;
  usize w = pos / 64;
  const usize off = pos % 64;
  if (off != 0) {  // unaligned head, up to the next word boundary
    const usize head = (64 - off) < len ? (64 - off) : len;
    d += popcount(((a[w] ^ b[w]) >> off) & low_mask(head));
    len -= head;
    ++w;
  }
  for (; len >= 64; ++w, len -= 64) d += popcount(a[w] ^ b[w]);
  if (len != 0) d += popcount((a[w] ^ b[w]) & low_mask(len));
  return d;
}

/// XOR-flips all bits in [pos, pos + len) of a word array. This is the
/// Flip-N-Write inversion primitive. Same head/body/tail structure as
/// hamming_range: whole words invert in one op on the aligned fast path.
inline void flip_range(std::span<u64> words, usize pos, usize len) noexcept {
  usize w = pos / 64;
  const usize off = pos % 64;
  if (off != 0) {
    const usize head = (64 - off) < len ? (64 - off) : len;
    words[w] ^= low_mask(head) << off;
    len -= head;
    ++w;
  }
  for (; len >= 64; ++w, len -= 64) words[w] = ~words[w];
  if (len != 0) words[w] ^= low_mask(len);
}

/// Largest power of two that is <= x; 0 maps to 0 (there is no power of
/// two below 1, and `bit_width(0) - 1` would be an out-of-range shift).
[[nodiscard]] constexpr usize floor_pow2(usize x) noexcept {
  return x == 0 ? 0 : usize{1} << (std::bit_width(x) - 1);
}

/// True when x is a power of two. Not std::has_single_bit: without the
/// POPCNT instruction that compiles to a libgcc call, and the address
/// decode asks this on every request.
[[nodiscard]] constexpr bool is_pow2(usize x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

}  // namespace nvmenc
