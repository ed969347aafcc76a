#include "encoding/cafo.hpp"

namespace nvmenc {

namespace {

constexpr usize kCols = CafoEncoder::kCols;
constexpr usize kRowsPerWord = kWordBits / kCols;
constexpr u64 kLaneLsbs = 0x0001000100010001ull;
static_assert(kCols == 16 && CafoEncoder::kRows == kRowsPerWord * kWordsPerLine,
              "rows are the 16-bit lanes of the line words");

/// Exchanges the bits of `x` selected by `mask` with the bits `shift`
/// places above them.
[[nodiscard]] constexpr u64 delta_swap(u64 x, u64 mask, unsigned shift) {
  const u64 t = ((x >> shift) ^ x) & mask;
  return x ^ t ^ (t << shift);
}

/// Transposes a 16x16 bit matrix held as four words, row r in lane r % 4 of
/// word r / 4 (bit c of the lane is column c): afterwards lane c % 4 of
/// word c / 4 holds column c (bit r is row r). Each step exchanges one bit
/// of the row index with the same bit of the column index: bits 3 and 2
/// between words, bits 1 and 0 within a word.
constexpr void transpose16(u64* m) {
  for (usize w = 0; w < 2; ++w) {
    const u64 t = ((m[w] >> 8) ^ m[w + 2]) & 0x00FF00FF00FF00FFull;
    m[w + 2] ^= t;
    m[w] ^= t << 8;
  }
  for (usize w = 0; w < 4; w += 2) {
    const u64 t = ((m[w] >> 4) ^ m[w + 1]) & 0x0F0F0F0F0F0F0F0Full;
    m[w + 1] ^= t;
    m[w] ^= t << 4;
  }
  for (usize w = 0; w < 4; ++w) {
    m[w] = delta_swap(m[w], 0x00000000CCCCCCCCull, 30);
    m[w] = delta_swap(m[w], 0x0000AAAA0000AAAAull, 15);
  }
}

/// Set-bit count of each 16-bit lane of `x`, in the lane's low byte.
[[nodiscard]] constexpr u64 lane_popcounts(u64 x) {
  const u64 bytes = byte_popcounts(x);
  return (bytes + (bytes >> 8)) & 0x00FF00FF00FF00FFull;
}

/// Moves bits 0..3 of `tags` to the low bits of lanes 0..3 (bit i to bit
/// 16i): the partial products of 2^0 + 2^15 + 2^30 + 2^45 never collide.
[[nodiscard]] constexpr u64 spread_lanes(u64 tags) {
  return ((tags & 0xF) * 0x0000200040008001ull) & kLaneLsbs;
}

/// Inverse of spread_lanes: bit 16i lands on bit 48 + i, every other
/// partial product below bit 48 or past bit 63.
[[nodiscard]] constexpr u64 gather_lanes(u64 lsbs) {
  return (lsbs * 0x0001000200040008ull) >> 48;
}

/// The flip pattern of line word `w`: row r's tag over its whole lane, XOR
/// the column tags in every lane.
[[nodiscard]] constexpr u64 word_flip(u64 row_tags, u64 col_tags, usize w) {
  return (spread_lanes(row_tags >> (w * kRowsPerWord)) * 0xFFFF) ^
         (col_tags * kLaneLsbs);
}

}  // namespace

// Every tag decision compares keeping the tag (ones + old) with flipping it
// ((n - ones) + (1 - old)) over a row of n = 16 or a column of n = 32
// cells, where `ones` counts the cells the write would flip and `old` is
// the stored tag. n + 1 is odd, so the two costs never tie, and the tag is
// set iff ones + old > n / 2: all 32 row decisions of a pass are
// independent and run four lanes per word, and so do the 16 column ones.
static_assert(CafoEncoder::kRows % 2 == 0 && kCols % 2 == 0,
              "odd cost totals rule out ties");

void CafoEncoder::encode_impl(StoredLine& stored,
                              const CacheLine& new_line) const {
  // error bit (r, j) == 1 iff writing logical bit (r, j) unmodified would
  // flip the stored cell: stored ^ new, one line word per 4 rows.
  std::array<u64, kWordsPerLine> error{};
  for (usize w = 0; w < kWordsPerLine; ++w) {
    error[w] = stored.data.word(w) ^ new_line.word(w);
  }
  // The same matrix by columns: lane c % 4 of by_col[c / 4] holds column c
  // over rows 0..15, lane c % 4 of by_col[4 + c / 4] over rows 16..31.
  std::array<u64, kWordsPerLine> by_col = error;
  transpose16(&by_col[0]);
  transpose16(&by_col[4]);

  const u64 meta = stored.meta.word_at(0);
  const u64 old_row_tags = meta & low_mask(kRows);
  const u64 old_col_tags = (meta >> kRows) & low_mask(kCols);
  std::array<u64, kWordsPerLine> old_rows{};  // old row tags, lane-spread
  for (usize w = 0; w < kWordsPerLine; ++w) {
    old_rows[w] = spread_lanes(old_row_tags >> (w * kRowsPerWord));
  }
  std::array<u64, 4> old_cols{};  // old column tags, lane-spread
  for (usize k = 0; k < old_cols.size(); ++k) {
    old_cols[k] = spread_lanes(old_col_tags >> (k * kRowsPerWord));
  }

  // Optimal row tags given the column tags: ones + old >= 9 of 17.
  auto row_pass = [&](u64 col_tags) {
    const u64 cols = col_tags * kLaneLsbs;
    u64 tags = 0;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      const u64 cost = lane_popcounts(error[w] ^ cols) + old_rows[w];
      const u64 set = ((cost + 7 * kLaneLsbs) >> 4) & kLaneLsbs;
      tags |= gather_lanes(set) << (w * kRowsPerWord);
    }
    return tags;
  };
  // Optimal column tags given the row tags: ones + old >= 17 of 33.
  auto col_pass = [&](u64 row_tags) {
    const u64 top = (row_tags & 0xFFFF) * kLaneLsbs;
    const u64 bottom = (row_tags >> 16) * kLaneLsbs;
    u64 tags = 0;
    for (usize k = 0; k < old_cols.size(); ++k) {
      const u64 cost = lane_popcounts(by_col[k] ^ top) +
                       lane_popcounts(by_col[4 + k] ^ bottom) + old_cols[k];
      const u64 set = ((cost + 15 * kLaneLsbs) >> 5) & kLaneLsbs;
      tags |= gather_lanes(set) << (k * kRowsPerWord);
    }
    return tags;
  };

  // Greedy alternating optimization, seeded with the stored tags so that a
  // silent rewrite converges immediately at zero cost.
  u64 row_tags = old_row_tags;
  u64 col_tags = old_col_tags;
  // Each pass that changes anything strictly lowers the integer cost
  // (bounded by 512 + 48), so the loop always exits at a fixpoint well
  // inside the bound.
  for (int pass = 0; pass < 1024; ++pass) {
    const u64 rows = row_pass(col_tags);
    const u64 cols = col_pass(rows);
    const bool changed = rows != row_tags || cols != col_tags;
    row_tags = rows;
    col_tags = cols;
    if (!changed) break;
  }

  // Materialize: stored(r, j) = logical(r, j) ^ row_tag[r] ^ col_tag[j].
  for (usize w = 0; w < kWordsPerLine; ++w) {
    stored.data.set_word(w,
                         new_line.word(w) ^ word_flip(row_tags, col_tags, w));
  }
  stored.meta.set_word_at(0, row_tags | (col_tags << kRows));
}

CacheLine CafoEncoder::decode(const StoredLine& stored) const {
  const u64 meta = stored.meta.bits(0, meta_bits());
  const u64 row_tags = meta & low_mask(kRows);
  const u64 col_tags = (meta >> kRows) & low_mask(kCols);
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    line.set_word(w, stored.data.word(w) ^ word_flip(row_tags, col_tags, w));
  }
  return line;
}

}  // namespace nvmenc
