// Differential harness for the word-parallel Flip-N-Write and CAFO
// kernels: MaskCosetEncoder (make_fnw(g), FlipMin) and CafoEncoder must
// produce bit-identical stored data, metadata, five-field flip ledgers and
// decodes to the per-block / bit-serial oracles of reference_fnw_cafo.hpp
// on every write of every stream:
//   * the FNW8 decision boundary, per byte: Hamming distance h = 0..8 to
//     the stored cells against old tag t = 0 and 1, so h + t = 4 (keep)
//     and 5 (flip) both occur with either tag;
//   * silent rewrites, complement rewrites, all-zero and all-one lines,
//     the adversarial classes of encoder_test_util.hpp and random lines;
//   * the write-back streams of all twelve benchmark profiles;
//   * make_fnw(g) for g in {1, 2, 4, 8, 16, 32, 64}, which keeps the
//     generic loop everywhere but g = 8.
// NVMENC_FUZZ_WRITES scales the stream lengths (CI's long mode).
#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

#include <gtest/gtest.h>

#include "encoder_test_util.hpp"
#include "encoding/cafo.hpp"
#include "encoding/mask_coset.hpp"
#include "reference_fnw_cafo.hpp"
#include "sim/collector.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

using testutil::ReferenceCafo;
using testutil::ReferenceMaskCoset;
using testutil::WriteClass;

int fuzz_writes() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<int>(n);
  }
  return 2'000;  // tier-1 budget; the CI sanitizer job runs 20000
}

/// Encodes `next` through both encoders from their current images and
/// asserts identical images, ledgers and decodes.
void step(const Encoder& kernel, const Encoder& oracle, StoredLine& sk,
          StoredLine& so, const CacheLine& next, const std::string& what,
          int iter) {
  const FlipBreakdown fk = kernel.encode(sk, next);
  const FlipBreakdown fo = oracle.encode(so, next);
  ASSERT_EQ(sk.data, so.data) << what << ": stored data diverge, write "
                              << iter;
  ASSERT_TRUE(sk.meta == so.meta)
      << what << ": stored metadata diverge, write " << iter;
  ASSERT_EQ(fk.data, fo.data) << what << " write " << iter;
  ASSERT_EQ(fk.tag, fo.tag) << what << " write " << iter;
  ASSERT_EQ(fk.flag, fo.flag) << what << " write " << iter;
  ASSERT_EQ(fk.sets, fo.sets) << what << " write " << iter;
  ASSERT_EQ(fk.resets, fo.resets) << what << " write " << iter;
  ASSERT_EQ(kernel.decode(sk), next) << what << " write " << iter;
  ASSERT_EQ(oracle.decode(so), next) << what << " write " << iter;
}

/// `iters` writes of class `wc`, every fourth one random so the tag state
/// keeps moving (a pure silent or complement stream freezes it).
void run_class(const Encoder& kernel, const Encoder& oracle, WriteClass wc,
               u64 seed, int iters) {
  ASSERT_EQ(kernel.meta_bits(), oracle.meta_bits());
  Xoshiro256 rng{seed};
  CacheLine logical = testutil::random_line(rng);
  StoredLine sk = kernel.make_stored(logical);
  StoredLine so = oracle.make_stored(logical);
  const std::string what =
      kernel.name() + "/" + testutil::write_class_name(wc);
  for (int i = 0; i < iters; ++i) {
    logical = testutil::next_line(
        rng, logical, i % 4 == 3 ? WriteClass::kRandom : wc);
    step(kernel, oracle, sk, so, logical, what, i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// A mixed stream of the adversarial classes plus all-zero and all-one
/// lines.
void run_mixed(const Encoder& kernel, const Encoder& oracle, u64 seed,
               int iters) {
  Xoshiro256 rng{seed};
  CacheLine logical = testutil::random_line(rng);
  StoredLine sk = kernel.make_stored(logical);
  StoredLine so = oracle.make_stored(logical);
  for (int i = 0; i < iters; ++i) {
    switch (rng.next_below(8)) {
      case 6: logical = CacheLine{}; break;
      case 7: logical = CacheLine::filled(~u64{0}); break;
      default:
        logical = testutil::next_line(rng, logical,
                                      testutil::kAllWriteClasses[rng.next_below(
                                          std::size(testutil::kAllWriteClasses))]);
    }
    step(kernel, oracle, sk, so, logical, kernel.name() + "/mixed", i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// A byte with exactly `h` of its 8 bits set, at random positions.
u64 byte_with_weight(Xoshiro256& rng, usize h) {
  u64 b = 0;
  while (popcount(b) < h) b |= u64{1} << rng.next_below(8);
  return b;
}

TEST(FnwDifferential, TieBoundaryEveryByteWeightAndTag) {
  // Byte b of the new line differs from the stored cells in h = b % 9 bits
  // under old tag t = (b / 9) % 2 (the other tag on odd rounds), so every
  // (h, t) pair, h + t = 4 and h + t = 5 among them, meets both encoders
  // from the same image. The kernel's choice is also checked against the
  // rule itself: flip iff h + t >= 5.
  const EncoderPtr kernel = make_fnw(8);
  const ReferenceMaskCoset oracle = ReferenceMaskCoset::fnw(8);
  Xoshiro256 rng{0xB0DA};
  const int rounds = std::max(fuzz_writes() / 10, 50);
  for (int round = 0; round < rounds; ++round) {
    StoredLine start = kernel->make_stored(testutil::random_line(rng));
    CacheLine diff;
    u64 tags = 0;
    for (usize b = 0; b < 64; ++b) {
      const usize h = b % 9;
      const u64 t = ((b / 9) + static_cast<usize>(round)) % 2;
      tags |= t << b;
      diff.set_word(b / 8,
                    diff.word(b / 8) | byte_with_weight(rng, h) << (8 * (b % 8)));
    }
    start.meta.set_bits(0, 64, tags);
    StoredLine sk = start;
    StoredLine so = start;
    step(*kernel, oracle, sk, so, start.data ^ diff, "boundary", round);
    if (HasFatalFailure()) return;
    for (usize b = 0; b < 64; ++b) {
      const usize h = b % 9;
      const usize t = (tags >> b) & 1;
      ASSERT_EQ((sk.meta.word_at(0) >> b) & 1, h + t >= 5 ? 1u : 0u)
          << "byte " << b << " h " << h << " t " << t;
    }
  }
}

TEST(FnwDifferential, SilentComplementZeroOnesRandom) {
  const EncoderPtr kernel = make_fnw(8);
  const ReferenceMaskCoset oracle = ReferenceMaskCoset::fnw(8);
  Xoshiro256 rng{77};
  const CacheLine zeros{};
  const CacheLine ones = CacheLine::filled(~u64{0});
  CacheLine logical = testutil::random_line(rng);
  StoredLine sk = kernel->make_stored(logical);
  StoredLine so = oracle.make_stored(logical);
  for (int i = 0; i < fuzz_writes(); ++i) {
    switch (i % 6) {
      case 0: logical = testutil::random_line(rng); break;
      case 1: break;  // silent rewrite
      case 2: logical = ~logical; break;
      case 3: logical = zeros; break;
      case 4: logical = ones; break;
      default: logical = ~logical; break;  // complement of all-ones
    }
    step(*kernel, oracle, sk, so, logical, "fnw8-fixed", i);
    if (HasFatalFailure()) return;
  }
}

TEST(FnwDifferential, AllGranularitiesAllClasses) {
  for (const usize g : std::array<usize, 7>{1, 2, 4, 8, 16, 32, 64}) {
    const EncoderPtr kernel = make_fnw(g);
    const ReferenceMaskCoset oracle = ReferenceMaskCoset::fnw(g);
    for (usize k = 0; k < std::size(testutil::kAllWriteClasses); ++k) {
      run_class(*kernel, oracle, testutil::kAllWriteClasses[k], 31 * g + k,
                fuzz_writes() / 4);
      if (HasFatalFailure()) return;
    }
    run_mixed(*kernel, oracle, 1000 + g, fuzz_writes() / 2);
    if (HasFatalFailure()) return;
  }
}

TEST(FnwDifferential, FlipMinMaskSetKeepsGenericLoop) {
  std::vector<u64> masks;
  for (u64 i = 0; i < 16; ++i) masks.push_back(i * 0x1111u);
  const MaskCosetEncoder kernel{"FlipMin", 16, masks};
  const ReferenceMaskCoset oracle{"ReferenceFlipMin", 16, masks};
  run_mixed(kernel, oracle, 16, fuzz_writes() / 2);
}

TEST(CafoDifferential, AllClasses) {
  const CafoEncoder kernel;
  const ReferenceCafo oracle;
  for (usize k = 0; k < std::size(testutil::kAllWriteClasses); ++k) {
    run_class(kernel, oracle, testutil::kAllWriteClasses[k], 0xCAF0 + k,
              fuzz_writes());
    if (HasFatalFailure()) return;
  }
}

TEST(CafoDifferential, MixedWithZeroAndOneLines) {
  const CafoEncoder kernel;
  const ReferenceCafo oracle;
  run_mixed(kernel, oracle, 0xCAFE, fuzz_writes());
}

TEST(CafoDifferential, RowAndColumnBoundaries) {
  // Rows whose error weight straddles the row decision (8 vs 9 of 17
  // cells+tag) and columns whose weight straddles the column decision
  // (16 vs 17 of 33), each under both old-tag values, from arbitrary
  // stored images and tags.
  const CafoEncoder kernel;
  const ReferenceCafo oracle;
  Xoshiro256 rng{0xB0DB};
  for (int round = 0; round < std::max(fuzz_writes() / 10, 50); ++round) {
    StoredLine start = kernel.make_stored(testutil::random_line(rng));
    start.meta.set_bits(0, 48, rng.next() & low_mask(48));
    CacheLine diff;
    for (usize r = 0; r < CafoEncoder::kRows; ++r) {
      u64 row = 0;
      const usize weight = 7 + rng.next_below(4);  // 7..10 of 16
      while (popcount(row) < weight) row |= u64{1} << rng.next_below(16);
      diff.set_word(r / 4, diff.word(r / 4) | row << (16 * (r % 4)));
    }
    if (round % 2 == 1) diff = ~diff;  // column weights move too
    StoredLine sk = start;
    StoredLine so = start;
    step(kernel, oracle, sk, so, start.data ^ diff, "cafo-boundary", round);
    if (HasFatalFailure()) return;
  }
}

TEST(FnwCafoDecode, ForeignImageWithTooFewMetadataBitsThrows) {
  // The word-level decodes read their tags with the checked accessor, as
  // the generic loops did: an image whose metadata is shorter than the
  // scheme's (none at all, or one cell short) is rejected, not read past.
  const EncoderPtr fnw8 = make_fnw(8);
  const CafoEncoder cafo;
  Xoshiro256 rng{0xF0E1};
  for (const Encoder* enc : std::array<const Encoder*, 2>{fnw8.get(), &cafo}) {
    const CacheLine line = testutil::random_line(rng);
    EXPECT_THROW((void)enc->decode(StoredLine{line, BitBuf{}}),
                 std::invalid_argument)
        << enc->name();
    EXPECT_THROW(
        (void)enc->decode(StoredLine{line, BitBuf{enc->meta_bits() - 1}}),
        std::invalid_argument)
        << enc->name();
    EXPECT_EQ(enc->decode(enc->make_stored(line)), line) << enc->name();
  }
}

class FnwCafoProfiles : public ::testing::TestWithParam<int> {};

TEST_P(FnwCafoProfiles, Fnw8AndCafoMatchOracles) {
  // The write-back stream each benchmark profile feeds the matrix, with
  // the working set and caches shrunk so a short run evicts densely.
  WorkloadProfile profile = spec2006_profiles()[static_cast<usize>(GetParam())];
  profile.working_set_lines = std::min<usize>(profile.working_set_lines, 512);
  SyntheticWorkload workload{profile, 4321};
  CollectorConfig cc;
  cc.caches = {
      {.name = "L1", .size_bytes = 8 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 64 * kLineBytes, .ways = 4},
  };
  cc.warmup_accesses = 2'000;
  cc.measured_accesses = static_cast<usize>(fuzz_writes()) * 10;
  const WritebackTrace trace = collect_writebacks(workload, cc);

  const EncoderPtr fnw = make_fnw(8);
  const ReferenceMaskCoset fnw_oracle = ReferenceMaskCoset::fnw(8);
  const CafoEncoder cafo;
  const ReferenceCafo cafo_oracle;
  struct Images {
    StoredLine fnw, fnw_ref, cafo, cafo_ref;
  };
  std::unordered_map<u64, Images> lines;
  int writes = 0;
  for (const auto* wbs : {&trace.warmup, &trace.measured}) {
    for (const WriteBack& wb : *wbs) {
      auto it = lines.find(wb.line_addr);
      if (it == lines.end()) {
        const CacheLine pristine = trace.initial_line(wb.line_addr);
        it = lines
                 .emplace(wb.line_addr,
                          Images{fnw->make_stored(pristine),
                                 fnw_oracle.make_stored(pristine),
                                 cafo.make_stored(pristine),
                                 cafo_oracle.make_stored(pristine)})
                 .first;
      }
      Images& im = it->second;
      step(*fnw, fnw_oracle, im.fnw, im.fnw_ref, wb.data, trace.benchmark,
           writes);
      if (HasFatalFailure()) return;
      step(cafo, cafo_oracle, im.cafo, im.cafo_ref, wb.data, trace.benchmark,
           writes);
      if (HasFatalFailure()) return;
      ++writes;
    }
  }
  EXPECT_GT(writes, 100) << "profile produced too few write-backs to test";
}

INSTANTIATE_TEST_SUITE_P(TwelveBenchmarks, FnwCafoProfiles,
                         ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return spec2006_profiles()[static_cast<usize>(
                                                          param_info.param)]
                               .name;
                         });

}  // namespace
}  // namespace nvmenc
