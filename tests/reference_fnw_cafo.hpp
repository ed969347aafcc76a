// ReferenceMaskCoset and ReferenceCafo: the per-block and per-bit
// Flip-N-Write/coset and CAFO encoders as the repository shipped them
// before the word-parallel kernels, kept as differential-testing oracles.
//
// ReferenceMaskCoset is MaskCosetEncoder's generic loop for every mask set
// and block size: per block, extract the stored cells and the new data,
// score every mask (data-cell flips + index-bit flips, strict '<', so a
// tie keeps the lower index) and deposit the winner. ReferenceCafo is the
// bit-serial CAFO greedy loop: rows and columns read bit by bit out of a
// 32-entry row array, alternating row and column passes from the stored
// tags, ties keeping the current tag, at most 1024 passes. Both use only
// extract_bits/deposit_bits, popcount (itself checked against
// std::popcount in test_bitops.cpp) and BitBuf's checked accessors, never
// the byte- or lane-parallel tricks of the kernels, so a bug in the kernels
// of src/encoding cannot cancel out against the same bug here;
// test_fnw_cafo_differential.cpp checks the kernels against them and
// bench/encoder_gate times them.
#pragma once

#include <array>
#include <bit>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "encoding/cafo.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc::testutil {

class ReferenceMaskCoset final : public Encoder {
 public:
  ReferenceMaskCoset(std::string name, usize block_bits, std::vector<u64> masks)
      : name_{std::move(name)},
        block_bits_{block_bits},
        masks_{std::move(masks)} {
    require(block_bits_ >= 1 && block_bits_ <= 64 &&
                kLineBits % block_bits_ == 0,
            "block size must divide 512 and be 1..64 bits");
    require(masks_.size() >= 2 && is_pow2(masks_.size()) && masks_[0] == 0,
            "mask set must be a power of two >= 2 with the identity first");
    blocks_ = kLineBits / block_bits_;
    index_bits_ = static_cast<usize>(std::bit_width(masks_.size() - 1));
  }

  /// The oracle of make_fnw(g): masks {0, all-ones} at g-bit blocks.
  [[nodiscard]] static ReferenceMaskCoset fnw(usize granularity) {
    return {"ReferenceFNW" + std::to_string(granularity), granularity,
            {0, low_mask(granularity)}};
  }

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return blocks_ * index_bits_;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override { return true; }

  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override {
    CacheLine line = stored.data;
    for (usize b = 0; b < blocks_; ++b) {
      const usize pos = b * block_bits_;
      const u64 index = stored.meta.bits(b * index_bits_, index_bits_);
      const u64 cells = extract_bits(line.words(), pos, block_bits_);
      deposit_bits(line.words(), pos, block_bits_,
                   cells ^ masks_[static_cast<usize>(index)]);
    }
    return line;
  }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override {
    for (usize b = 0; b < blocks_; ++b) {
      const usize pos = b * block_bits_;
      const u64 old_cells =
          extract_bits(stored.data.words(), pos, block_bits_);
      const u64 data = extract_bits(new_line.words(), pos, block_bits_);
      const u64 old_index = stored.meta.bits(b * index_bits_, index_bits_);

      usize best_index = 0;
      usize best_cost = ~usize{0};
      for (usize i = 0; i < masks_.size(); ++i) {
        const usize cost = hamming(old_cells, data ^ masks_[i]) +
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

 private:
  std::string name_;
  usize block_bits_;
  usize blocks_ = 0;
  usize index_bits_ = 0;
  std::vector<u64> masks_;
};

class ReferenceCafo final : public Encoder {
 public:
  static constexpr usize kRows = CafoEncoder::kRows;
  static constexpr usize kCols = CafoEncoder::kCols;

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return kRows + kCols;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override { return true; }

  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override {
    const u64 row_tags = stored.meta.bits(0, kRows);
    const u64 col_tags = stored.meta.bits(kRows, kCols);
    CacheLine line;
    for (usize r = 0; r < kRows; ++r) {
      const u64 flip = ((row_tags >> r) & 1 ? low_mask(kCols) : 0) ^ col_tags;
      deposit_bits(line.words(), r * kCols, kCols, row(stored.data, r) ^ flip);
    }
    return line;
  }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override {
    std::array<u64, kRows> error{};
    for (usize r = 0; r < kRows; ++r) {
      error[r] = row(stored.data, r) ^ row(new_line, r);
    }

    const u64 old_row_tags = stored.meta.bits(0, kRows);
    const u64 old_col_tags = stored.meta.bits(kRows, kCols);
    u64 row_tags = old_row_tags;
    u64 col_tags = old_col_tags;
    for (int pass = 0; pass < 1024; ++pass) {
      bool changed = false;

      for (usize r = 0; r < kRows; ++r) {
        const usize ones = popcount((error[r] ^ col_tags) & low_mask(kCols));
        const bool old_tag = (old_row_tags >> r) & 1;
        const bool cur = (row_tags >> r) & 1;
        const usize cost0 = ones + (old_tag ? 1 : 0);
        const usize cost1 = (kCols - ones) + (old_tag ? 0 : 1);
        const bool best = cost1 < cost0 || (cost1 == cost0 && cur);
        if (best != cur) {
          row_tags ^= u64{1} << r;
          changed = true;
        }
      }

      for (usize c = 0; c < kCols; ++c) {
        usize ones = 0;
        for (usize r = 0; r < kRows; ++r) {
          ones += ((error[r] >> c) ^ (row_tags >> r)) & 1;
        }
        const bool old_tag = (old_col_tags >> c) & 1;
        const bool cur = (col_tags >> c) & 1;
        const usize cost0 = ones + (old_tag ? 1 : 0);
        const usize cost1 = (kRows - ones) + (old_tag ? 0 : 1);
        const bool best = cost1 < cost0 || (cost1 == cost0 && cur);
        if (best != cur) {
          col_tags ^= u64{1} << c;
          changed = true;
        }
      }

      if (!changed) break;
    }

    for (usize r = 0; r < kRows; ++r) {
      const u64 flip = ((row_tags >> r) & 1 ? low_mask(kCols) : 0) ^ col_tags;
      deposit_bits(stored.data.words(), r * kCols, kCols,
                   row(new_line, r) ^ flip);
    }
    stored.meta.set_bits(0, kRows, row_tags);
    stored.meta.set_bits(kRows, kCols, col_tags);
  }

 private:
  [[nodiscard]] static u64 row(const CacheLine& line, usize r) noexcept {
    return extract_bits(line.words(), r * kCols, kCols);
  }

  std::string name_ = "ReferenceCafo";
};

}  // namespace nvmenc::testutil
