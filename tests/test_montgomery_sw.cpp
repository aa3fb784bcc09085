// Tests for the software Montgomery references (the golden models that the
// cycle-accurate hardware simulations are validated against).  Their
// exponentiation cases run the one §4.5 scan, core::MmmEngine::ModExp,
// over each reference's products.
#include <gtest/gtest.h>

#include <string_view>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "testutil.hpp"

namespace mont::bignum {
namespace {

/// MmmEngine::ModExp over one WordMontgomery variant's products, with the
/// reference's own R = 2^(32s) and window [0, N).
class WordVariantEngine final : public core::MmmEngine {
 public:
  WordVariantEngine(const BigUInt& n, WordMontgomery::Variant variant)
      : MmmEngine(n, core::EngineField::kGfP, n.BitLength(), n),
        ctx_(n),
        variant_(variant) {}

  std::string_view Name() const override { return "word-variant"; }
  core::EngineCaps Caps() const override { return {}; }
  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    if (cycles != nullptr) *cycles += MultiplyCyclesModel();
    return ctx_.Multiply(x, y, variant_);
  }
  const BigUInt& MontFactor() const override { return ctx_.RSquaredModN(); }
  std::uint64_t MultiplyCyclesModel() const override { return 1; }

 private:
  WordMontgomery ctx_;
  WordMontgomery::Variant variant_;
};

// A small odd modulus for exhaustive checks.
constexpr std::uint64_t kSmallN = 239;

TEST(BitSerialMontgomery, RejectsBadModulus) {
  EXPECT_THROW(BitSerialMontgomery(BigUInt{4}), std::invalid_argument);
  EXPECT_THROW(BitSerialMontgomery(BigUInt{1}), std::invalid_argument);
  EXPECT_THROW(BitSerialMontgomery(BigUInt{0}), std::invalid_argument);
}

TEST(BitSerialMontgomery, ParametersMatchPaper) {
  const BigUInt n = BigUInt::FromDec("1000003");  // 20-bit prime
  BitSerialMontgomery ctx(n);
  EXPECT_EQ(ctx.l(), 20u);
  EXPECT_EQ(ctx.R(), BigUInt::PowerOfTwo(22));
  // Walter's bound: 4N < R.
  EXPECT_LT(n << 2, ctx.R());
}

// Exhaustive check of Algorithm 1 against the definition x*y*R1^-1 mod N.
TEST(BitSerialMontgomery, Alg1MatchesDefinitionExhaustive) {
  const BigUInt n{kSmallN};
  BitSerialMontgomery ctx(n);
  for (std::uint64_t x = 0; x < kSmallN; x += 7) {
    for (std::uint64_t y = 0; y < kSmallN; y += 5) {
      EXPECT_EQ(ctx.MultiplyAlg1(BigUInt{x}, BigUInt{y}),
                test::MontOracle(BigUInt{x}, BigUInt{y}, n, ctx.l()))
          << "x=" << x << " y=" << y;
    }
  }
}

// Exhaustive check of Algorithm 2: result congruent to x*y*R^-1 mod N and
// bounded by 2N (paper's key claim enabling subtraction-free chaining).
TEST(BitSerialMontgomery, Alg2CongruenceAndBoundExhaustive) {
  const BigUInt n{kSmallN};
  BitSerialMontgomery ctx(n);
  for (std::uint64_t x = 0; x < 2 * kSmallN; x += 11) {
    for (std::uint64_t y = 0; y < 2 * kSmallN; y += 13) {
      EXPECT_TRUE(test::IsChainableMontProduct(
          ctx.MultiplyAlg2(BigUInt{x}, BigUInt{y}), BigUInt{x}, BigUInt{y}, n,
          ctx.R()));
    }
  }
}

TEST(BitSerialMontgomery, Alg2RejectsOutOfRange) {
  const BigUInt n{kSmallN};
  BitSerialMontgomery ctx(n);
  EXPECT_THROW(ctx.MultiplyAlg2(BigUInt{2 * kSmallN}, BigUInt{1}),
               std::invalid_argument);
  EXPECT_THROW(ctx.MultiplyAlg2(BigUInt{1}, BigUInt{2 * kSmallN}),
               std::invalid_argument);
}

// Property: Algorithm 2 keeps outputs < 2N across random operand sizes, so
// results can always be fed back as inputs (the paper's chaining property).
TEST(BitSerialMontgomeryProperty, Alg2OutputsChainable) {
  auto rng = test::TestRng();
  for (const std::size_t bits : test::kSoftwareBitLengths) {
    const BigUInt n = rng.OddExactBits(bits);
    BitSerialMontgomery ctx(n);
    const BigUInt two_n = n << 1;
    BigUInt a = rng.Below(two_n);
    BigUInt b = rng.Below(two_n);
    for (int step = 0; step < 16; ++step) {
      a = ctx.MultiplyAlg2(a, b);  // feed the output straight back in
      ASSERT_LT(a, two_n) << "bits=" << bits << " step=" << step;
    }
  }
}

// Property: ToMont/FromMont round-trips and matches x*R mod N semantics.
TEST(BitSerialMontgomeryProperty, DomainRoundTrip) {
  auto rng = test::TestRng();
  for (int trial = 0; trial < 30; ++trial) {
    const BigUInt n = rng.OddExactBits(96);
    BitSerialMontgomery ctx(n);
    const BigUInt x = rng.Below(n);
    const BigUInt x_mont = ctx.ToMont(x);
    EXPECT_EQ(x_mont % n, (x * ctx.R()) % n);
    EXPECT_EQ(ctx.FromMont(x_mont), x);
  }
}

// Property: the §4.5 exponentiation over the bit-serial products (the
// "bit-serial" engine wraps a BitSerialMontgomery) agrees with the plain
// BigUInt::ModExp.
TEST(BitSerialMontgomeryProperty, ModExpMatchesReference) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 32u, 128u}) {
    const BigUInt n = rng.OddExactBits(bits);
    const auto engine = core::MakeEngine("bit-serial", n);
    for (int trial = 0; trial < 8; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt exp = rng.ExactBits(bits);
      EXPECT_EQ(engine->ModExp(base, exp), BigUInt::ModExp(base, exp, n))
          << "bits=" << bits;
    }
  }
}

TEST(BitSerialMontgomery, ModExpEdgeCases) {
  const BigUInt n{kSmallN};
  const auto engine = core::MakeEngine("bit-serial", n);
  EXPECT_EQ(engine->ModExp(BigUInt{5}, BigUInt{0}).ToUint64(), 1u);
  EXPECT_EQ(engine->ModExp(BigUInt{5}, BigUInt{1}).ToUint64(), 5u);
  EXPECT_EQ(engine->ModExp(BigUInt{0}, BigUInt{5}).ToUint64(), 0u);
  // Fermat's little theorem on the prime 239.
  EXPECT_EQ(engine->ModExp(BigUInt{2}, BigUInt{kSmallN - 1}).ToUint64(), 1u);
}

// All three word-level variants must agree with the mathematical definition.
class WordMontgomeryVariants
    : public ::testing::TestWithParam<WordMontgomery::Variant> {};

TEST_P(WordMontgomeryVariants, MatchesDefinitionRandom) {
  auto rng = test::TestRng();
  for (const std::size_t bits : test::kSoftwareBitLengths) {
    const BigUInt n = rng.OddExactBits(bits);
    WordMontgomery ctx(n);
    const BigUInt r = BigUInt::PowerOfTwo(32 * ctx.LimbCount());
    for (int trial = 0; trial < 10; ++trial) {
      const BigUInt x = rng.Below(n);
      const BigUInt y = rng.Below(n);
      EXPECT_TRUE(test::IsReducedMontProduct(ctx.Multiply(x, y, GetParam()),
                                             x, y, n, r))
          << "bits=" << bits;
    }
  }
}

TEST_P(WordMontgomeryVariants, ModExpMatchesReference) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(256);
  const WordVariantEngine engine(n, GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt base = rng.Below(n);
    const BigUInt exp = rng.ExactBits(64);
    EXPECT_EQ(engine.ModExp(base, exp), BigUInt::ModExp(base, exp, n));
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, WordMontgomeryVariants,
                         ::testing::Values(WordMontgomery::Variant::kCios,
                                           WordMontgomery::Variant::kSos,
                                           WordMontgomery::Variant::kFips),
                         [](const auto& info) {
                           switch (info.param) {
                             case WordMontgomery::Variant::kCios: return "CIOS";
                             case WordMontgomery::Variant::kSos: return "SOS";
                             case WordMontgomery::Variant::kFips: return "FIPS";
                           }
                           return "unknown";
                         });

TEST(WordMontgomery, VariantsAgreeWithEachOther) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(1024);
  WordMontgomery ctx(n);
  for (int trial = 0; trial < 10; ++trial) {
    const BigUInt x = rng.Below(n);
    const BigUInt y = rng.Below(n);
    const BigUInt cios = ctx.Multiply(x, y, WordMontgomery::Variant::kCios);
    const BigUInt sos = ctx.Multiply(x, y, WordMontgomery::Variant::kSos);
    const BigUInt fips = ctx.Multiply(x, y, WordMontgomery::Variant::kFips);
    EXPECT_EQ(cios, sos);
    EXPECT_EQ(cios, fips);
  }
}

TEST(WordMontgomery, BitSerialAndWordLevelAgreeOnModExp) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(160);
  const auto bit_serial = core::MakeEngine("bit-serial", n);
  const WordVariantEngine word_level(n, WordMontgomery::Variant::kCios);
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt base = rng.Below(n);
    const BigUInt exp = rng.ExactBits(48);
    EXPECT_EQ(bit_serial->ModExp(base, exp), word_level.ModExp(base, exp));
  }
}

}  // namespace
}  // namespace mont::bignum
