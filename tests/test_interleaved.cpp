// Tests for the dual-channel (C-slow) array: both channels must match the
// software reference for every operand combination, the pair latency is
// 3l+5, and the interleaved right-to-left exponentiator is correct and
// strictly faster than the sequential Algorithm 3.
#include <gtest/gtest.h>

#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/interleaved.hpp"
#include "core/schedule.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;
using bignum::BitSerialMontgomery;
using bignum::RandomBigUInt;

TEST(InterleavedMmmc, RejectsBadInputs) {
  EXPECT_THROW(InterleavedMmmc(BigUInt{6}), std::invalid_argument);
  InterleavedMmmc circuit(BigUInt{23});
  EXPECT_THROW(
      circuit.MultiplyPair(BigUInt{46}, BigUInt{1}, BigUInt{1}, BigUInt{1}),
      std::invalid_argument);
}

// Exhaustive dual-channel check on a small modulus.
TEST(InterleavedMmmc, ExhaustiveSmallModulus) {
  const BigUInt n{19};
  InterleavedMmmc circuit(n);
  BitSerialMontgomery reference(n);
  for (std::uint64_t xa = 0; xa < 38; xa += 5) {
    for (std::uint64_t ya = 0; ya < 38; ya += 3) {
      // Channel B gets a deliberately different operand pair.
      const std::uint64_t xb = (xa * 7 + 3) % 38;
      const std::uint64_t yb = (ya * 11 + 1) % 38;
      const auto pair = circuit.MultiplyPair(BigUInt{xa}, BigUInt{ya},
                                             BigUInt{xb}, BigUInt{yb});
      EXPECT_EQ(pair.a, reference.MultiplyAlg2(BigUInt{xa}, BigUInt{ya}))
          << "A channel, xa=" << xa << " ya=" << ya;
      EXPECT_EQ(pair.b, reference.MultiplyAlg2(BigUInt{xb}, BigUInt{yb}))
          << "B channel, xb=" << xb << " yb=" << yb;
    }
  }
}

class InterleavedSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterleavedSizes, RandomPairsMatchReference) {
  const std::size_t bits = GetParam();
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(bits);
  InterleavedMmmc circuit(n);
  BitSerialMontgomery reference(n);
  const BigUInt two_n = n << 1;
  for (int trial = 0; trial < 6; ++trial) {
    const BigUInt xa = rng.Below(two_n), ya = rng.Below(two_n);
    const BigUInt xb = rng.Below(two_n), yb = rng.Below(two_n);
    const auto pair = circuit.MultiplyPair(xa, ya, xb, yb);
    EXPECT_EQ(pair.a, reference.MultiplyAlg2(xa, ya)) << "bits=" << bits;
    EXPECT_EQ(pair.b, reference.MultiplyAlg2(xb, yb)) << "bits=" << bits;
    EXPECT_EQ(pair.cycles, InterleavedMmmc::PairCycles(bits));
  }
}

INSTANTIATE_TEST_SUITE_P(BitLengths, InterleavedSizes,
                         ::testing::Values(2, 3, 4, 5, 8, 16, 33, 64, 128));

TEST(InterleavedMmmc, ThroughputNearlyDoubles) {
  for (const std::size_t l : {64u, 1024u}) {
    const std::uint64_t sequential = 2 * MultiplyCycles(l);
    const std::uint64_t interleaved = InterleavedMmmc::PairCycles(l);
    const double speedup = static_cast<double>(sequential) /
                           static_cast<double>(interleaved);
    EXPECT_GT(speedup, 1.9);
    EXPECT_LT(speedup, 2.0);
  }
}

TEST(InterleavedExponentiator, MatchesReference) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 24u, 48u}) {
    const BigUInt n = rng.OddExactBits(bits);
    InterleavedExponentiator exp(n);
    for (int trial = 0; trial < 3; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt e = rng.ExactBits(bits);
      EXPECT_EQ(exp.ModExp(base, e), BigUInt::ModExp(base, e, n))
          << "bits=" << bits;
    }
  }
}

TEST(InterleavedExponentiator, EdgeExponents) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  InterleavedExponentiator exp(n);
  const BigUInt base = rng.Below(n);
  EXPECT_TRUE(exp.ModExp(base, BigUInt{0}).IsOne());
  EXPECT_EQ(exp.ModExp(base, BigUInt{1}), base);
  EXPECT_EQ(exp.ModExp(base, BigUInt{6}), BigUInt::ModExp(base, BigUInt{6}, n));
}

TEST(InterleavedExponentiator, FasterThanSequentialAlgorithm3) {
  auto rng = test::TestRng();
  const std::size_t bits = 64;
  const BigUInt n = rng.OddExactBits(bits);
  const BigUInt base = rng.Below(n);
  const BigUInt e = rng.BalancedExactBits(bits);

  InterleavedExponentiator fast(n);
  EngineStats fast_stats;
  const BigUInt a = fast.ModExp(base, e, &fast_stats);

  EngineStats seq_stats;
  const BigUInt b = MakeEngine("bit-serial", n)->ModExp(base, e, &seq_stats);

  ASSERT_EQ(a, b);
  EXPECT_LT(fast_stats.engine_cycles, seq_stats.engine_cycles)
      << "pairing squares with multiplies must win on a balanced exponent";
  // For a balanced exponent the win approaches 1.5x.
  const double speedup = static_cast<double>(seq_stats.engine_cycles) /
                         static_cast<double>(fast_stats.engine_cycles);
  EXPECT_GT(speedup, 1.25);
}

}  // namespace
}  // namespace mont::core
