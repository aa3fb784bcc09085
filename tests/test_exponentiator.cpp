// Tests for the modular exponentiator (paper §4.5), MmmEngine::ModExp:
// functional equivalence with plain modular exponentiation, the Eq. 10
// cycle bounds, agreement between the cycle-accurate and fast engines, and
// the service's exponent blinding over the same scan.
#include <gtest/gtest.h>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "core/schedule.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;
using bignum::RandomBigUInt;

TEST(Exponentiator, MatchesReferenceFastEngine) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 16u, 64u, 160u, 256u}) {
    const BigUInt n = rng.OddExactBits(bits);
    const auto exp = MakeEngine("bit-serial", n);
    for (int trial = 0; trial < 4; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt e = rng.ExactBits(bits);
      EXPECT_EQ(exp->ModExp(base, e), BigUInt::ModExp(base, e, n))
          << "bits=" << bits;
    }
  }
}

TEST(Exponentiator, MatchesReferenceCycleAccurateEngine) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 16u, 32u}) {
    const BigUInt n = rng.OddExactBits(bits);
    const auto exp = MakeEngine("mmmc", n);
    for (int trial = 0; trial < 2; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt e = rng.ExactBits(bits);
      EXPECT_EQ(exp->ModExp(base, e), BigUInt::ModExp(base, e, n))
          << "bits=" << bits;
    }
  }
}

TEST(Exponentiator, EnginesAgreeOnStatsAndValues) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(24);
  const auto fast = MakeEngine("bit-serial", n);
  const auto accurate = MakeEngine("mmmc", n);
  for (int trial = 0; trial < 3; ++trial) {
    const BigUInt base = rng.Below(n);
    const BigUInt e = rng.ExactBits(24);
    EngineStats fast_stats, accurate_stats;
    const BigUInt fast_result = fast->ModExp(base, e, &fast_stats);
    const BigUInt accurate_result =
        accurate->ModExp(base, e, &accurate_stats);
    EXPECT_EQ(fast_result, accurate_result);
    EXPECT_EQ(fast_stats.squarings, accurate_stats.squarings);
    EXPECT_EQ(fast_stats.multiplications, accurate_stats.multiplications);
    EXPECT_EQ(fast_stats.mmm_invocations, accurate_stats.mmm_invocations);
    // The fast engine charges 3l+4 per MMM; the cycle-accurate engine
    // measures it.  They must agree exactly.
    EXPECT_EQ(fast_stats.engine_cycles, accurate_stats.engine_cycles);
  }
}

TEST(Exponentiator, OperationCountsMatchExponentShape) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(32);
  const auto exp = MakeEngine("bit-serial", n);
  // All-ones exponent of t bits: t-1 squarings, t-1 multiplications.
  const BigUInt all_ones = BigUInt::PowerOfTwo(16) - BigUInt{1};
  EngineStats stats;
  exp->ModExp(BigUInt{3}, all_ones, &stats);
  EXPECT_EQ(stats.squarings, 15u);
  EXPECT_EQ(stats.multiplications, 15u);
  EXPECT_EQ(stats.mmm_invocations, 15u + 15u + 2u) << "plus domain entry/exit";

  // One-hot exponent 2^16: 16 squarings, 0 multiplications.
  stats = {};
  exp->ModExp(BigUInt{3}, BigUInt::PowerOfTwo(16), &stats);
  EXPECT_EQ(stats.squarings, 16u);
  EXPECT_EQ(stats.multiplications, 0u);
}

// Eq. 10: 3l^2+10l+12 <= T_mod-exp <= 6l^2+14l+12 for l-bit exponents,
// under the paper's cycle accounting.
class Eq10Bounds : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Eq10Bounds, PaperModelCyclesWithinBounds) {
  const std::size_t l = GetParam();
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(l);
  const auto exp = MakeEngine("bit-serial", n);
  for (int trial = 0; trial < 4; ++trial) {
    // Exponent with exactly l bits (top bit set), random lower bits.
    const BigUInt e = rng.ExactBits(l);
    EngineStats stats;
    exp->ModExp(rng.Below(n), e, &stats);
    EXPECT_LE(stats.paper_model_cycles, ExponentiationUpperBound(l));
    // The published lower bound assumes l squarings; the actual algorithm
    // performs l-1, so allow one MMM of slack below the closed form.
    EXPECT_GE(stats.paper_model_cycles + MultiplyCycles(l),
              ExponentiationLowerBound(l));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Eq10Bounds,
                         ::testing::Values(16, 32, 64, 128, 256));

// Fermat/Euler sanity through the full hardware-modelled flow.
TEST(Exponentiator, FermatLittleTheorem) {
  const BigUInt p{65537};  // prime
  const auto exp = MakeEngine("bit-serial", p);
  for (const std::uint64_t a : {2ull, 3ull, 12345ull}) {
    EXPECT_TRUE(exp->ModExp(BigUInt{a}, p - BigUInt{1}).IsOne());
  }
}

TEST(Exponentiator, EdgeExponents) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(20);
  const auto exp = MakeEngine("bit-serial", n);
  const BigUInt base = rng.Below(n);
  EXPECT_TRUE(exp->ModExp(base, BigUInt{0}).IsOne());
  EXPECT_EQ(exp->ModExp(base, BigUInt{1}), base);
  EXPECT_EQ(exp->ModExp(base, BigUInt{2}), (base * base) % n);
  EXPECT_TRUE(exp->ModExp(BigUInt{0}, BigUInt{5}).IsZero());
}

// RSA-style round trip: (m^e)^d = m for e*d = 1 mod phi.
TEST(Exponentiator, RsaRoundTripSmall) {
  // p = 61, q = 53 -> n = 3233, phi = 3120, e = 17, d = 2753.
  const BigUInt n{3233}, e{17}, d{2753};
  const auto exp = MakeEngine("mmmc", n);
  for (const std::uint64_t m : {42ull, 123ull, 3000ull}) {
    const BigUInt c = exp->ModExp(BigUInt{m}, e);
    EXPECT_EQ(exp->ModExp(c, d).ToUint64(), m);
  }
}

// Exponent randomization (the sca lab's schedule countermeasure), the
// service's ExpJobOptions::exponent_blind_order over the same scan, in
// the deterministic executor: every job runs a different square/multiply
// sequence — visibly more MMMs — while the value is unchanged because the
// added multiple of the group order annihilates, and one blind seed
// replays the same schedule.
TEST(Exponentiator, ExponentBlindingSameValueRandomizedSchedule) {
  auto rng = test::TestRng();
  const BigUInt p = BigUInt::PowerOfTwo(61) - BigUInt{1};  // prime, order p-1
  const auto plain = MakeEngine("bit-serial", p);
  ExpService::Options options;
  options.blind_seed = 99;
  DeterministicExecutor blinded(options), replay(options);
  ExpJobOptions blind;
  blind.exponent_blind_order = p - BigUInt{1};
  blind.exponent_blind_bits = 12;
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt base = rng.Below(p);
    const BigUInt e = rng.ExactBits(32);
    EngineStats plain_stats;
    const BigUInt expected = plain->ModExp(base, e, &plain_stats);
    auto got = blinded.SubmitAt(blinded.Now(), p, base, e, blind);
    auto again = replay.SubmitAt(replay.Now(), p, base, e, blind);
    blinded.RunUntilIdle();
    replay.RunUntilIdle();
    const ExpResult result = got.get();
    EXPECT_EQ(result.value, expected);
    // k's top bit is forced, so the blinded exponent is strictly longer.
    EXPECT_GT(result.stats.mmm_invocations, plain_stats.mmm_invocations);
    EXPECT_EQ(again.get().stats.squarings, result.stats.squarings);
  }
  // Blinding is per job: an unblinded job on the same executor runs the
  // plain schedule.
  auto off = blinded.SubmitAt(blinded.Now(), p, rng.Below(p), BigUInt{3});
  blinded.RunUntilIdle();
  EXPECT_EQ(off.get().stats.squarings, 1u);
}

TEST(Exponentiator, ExponentBlindingRejectsBadConfig) {
  auto rng = test::TestRng();
  DeterministicExecutor executor(ExpService::Options{});
  ExpJobOptions no_bits;
  no_bits.exponent_blind_order = BigUInt{6};
  no_bits.exponent_blind_bits = 0;
  EXPECT_THROW(executor.SubmitAt(0, rng.OddExactBits(16), BigUInt{2},
                                 BigUInt{3}, no_bits),
               std::invalid_argument);
}

}  // namespace
}  // namespace mont::core
