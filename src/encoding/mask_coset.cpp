#include "encoding/mask_coset.hpp"

#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace nvmenc {

MaskCosetEncoder::MaskCosetEncoder(std::string name, usize block_bits,
                                   std::vector<u64> masks)
    : name_{std::move(name)},
      block_bits_{block_bits},
      blocks_{0},
      masks_{std::move(masks)} {
  require(block_bits_ >= 1 && block_bits_ <= 64,
          "block size must be 1..64 bits");
  require(kLineBits % block_bits_ == 0, "block size must divide 512");
  blocks_ = kLineBits / block_bits_;
  require(masks_.size() >= 2 && is_pow2(masks_.size()),
          "mask set size must be a power of two >= 2");
  require(masks_[0] == 0, "masks[0] must be the identity mask");
  std::unordered_set<u64> seen;
  for (u64 m : masks_) {
    require((m & ~low_mask(block_bits_)) == 0, "mask wider than block");
    require(seen.insert(m).second, "masks must be distinct");
  }
  index_bits_ = static_cast<usize>(std::bit_width(masks_.size() - 1));
  fnw8_ = block_bits_ == 8 && masks_ == std::vector<u64>{0, 0xFF};
}

namespace {

constexpr u64 kByteLsbs = 0x0101010101010101ull;

/// Spreads the 8 bits of `t` into the low bit of each byte (bit i -> bit
/// 8i): replicate the byte, keep bit i of byte i, and carry it into bit 7
/// by adding 0x7F (no byte overflows: 0x80 + 0x7F = 0xFF).
[[nodiscard]] constexpr u64 spread_bytes(u64 t) noexcept {
  const u64 picked = (t * kByteLsbs) & 0x8040201008040201ull;
  return ((picked + 0x7F7F7F7F7F7F7F7Full) >> 7) & kByteLsbs;
}

/// Inverse of spread_bytes: gathers the low bit of each byte into 8 bits.
/// Bit 8i lands on bit 56 + i; every other partial product falls below
/// bit 56 or above bit 63 without colliding, so nothing carries.
[[nodiscard]] constexpr u64 gather_bytes(u64 lsbs) noexcept {
  return (lsbs * 0x0102040810204080ull) >> 56;
}

}  // namespace

// Flip-N-Write at 8-bit blocks, one byte lane per block, eight at a time.
// Block b's costs are h + t (keep) and (8 - h) + (1 - t) (flip), where h is
// the block's Hamming distance to the stored cells and t its old tag; the
// generic loop flips iff the second is strictly smaller, i.e. iff
// h + t >= 5. Per byte h + t <= 9, so adding 3 sets bit 3 exactly then.
void MaskCosetEncoder::encode_fnw8(StoredLine& stored,
                                   const CacheLine& new_line) const {
  const u64 old_tags = stored.meta.word_at(0);
  u64 new_tags = 0;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    const u64 data = new_line.word(w);
    const u64 h = byte_popcounts(stored.data.word(w) ^ data);
    const u64 t = spread_bytes((old_tags >> (8 * w)) & 0xFF);
    const u64 flip = ((h + t + 3 * kByteLsbs) >> 3) & kByteLsbs;
    stored.data.set_word(w, data ^ (flip * 0xFF));
    new_tags |= gather_bytes(flip) << (8 * w);
  }
  stored.meta.set_word_at(0, new_tags);
}

void MaskCosetEncoder::encode_impl(StoredLine& stored,
                                   const CacheLine& new_line) const {
  if (fnw8_) {
    encode_fnw8(stored, new_line);
    return;
  }
  for (usize b = 0; b < blocks_; ++b) {
    const usize pos = b * block_bits_;
    const u64 old_cells = extract_bits(stored.data.words(), pos, block_bits_);
    const u64 data = extract_bits(new_line.words(), pos, block_bits_);
    const u64 old_index = stored.meta.bits(b * index_bits_, index_bits_);

    usize best_index = 0;
    usize best_cost = ~usize{0};
    for (usize i = 0; i < masks_.size(); ++i) {
      const usize cost =
          hamming(old_cells, data ^ masks_[i]) +
          hamming(old_index, static_cast<u64>(i));
      if (cost < best_cost) {
        best_cost = cost;
        best_index = i;
      }
    }

    deposit_bits(stored.data.words(), pos, block_bits_,
                 data ^ masks_[best_index]);
    stored.meta.set_bits(b * index_bits_, index_bits_,
                         static_cast<u64>(best_index));
  }
}

CacheLine MaskCosetEncoder::decode(const StoredLine& stored) const {
  CacheLine line = stored.data;
  if (fnw8_) {
    const u64 tags = stored.meta.bits(0, meta_bits());
    for (usize w = 0; w < kWordsPerLine; ++w) {
      const u64 flip = spread_bytes((tags >> (8 * w)) & 0xFF) * 0xFF;
      line.set_word(w, line.word(w) ^ flip);
    }
    return line;
  }
  for (usize b = 0; b < blocks_; ++b) {
    const usize pos = b * block_bits_;
    const u64 index = stored.meta.bits(b * index_bits_, index_bits_);
    const u64 cells = extract_bits(line.words(), pos, block_bits_);
    deposit_bits(line.words(), pos, block_bits_,
                 cells ^ masks_[static_cast<usize>(index)]);
  }
  return line;
}

EncoderPtr make_fnw(usize granularity) {
  return std::make_unique<MaskCosetEncoder>(
      "FNW" + std::to_string(granularity), granularity,
      std::vector<u64>{0, low_mask(granularity)});
}

EncoderPtr make_flipmin() {
  std::vector<u64> masks;
  masks.reserve(16);
  for (u64 i = 0; i < 16; ++i) masks.push_back(i * 0x1111u);
  return std::make_unique<MaskCosetEncoder>("FlipMin", 16, std::move(masks));
}

EncoderPtr make_pres(u64 seed) {
  std::vector<u64> masks{0};
  SplitMix64 sm{seed};
  std::unordered_set<u64> seen{0};
  while (masks.size() < 16) {
    const u64 mask = sm.next() & low_mask(16);
    if (seen.insert(mask).second) masks.push_back(mask);
  }
  return std::make_unique<MaskCosetEncoder>("PRES", 16, std::move(masks));
}

}  // namespace nvmenc
