// Tests for the comparison baselines: Blum-Paar radix-2 (functional
// correctness with their R = 2^(l+3), cycle/clock disadvantages), the
// high-radix model, and the final-subtraction model.
#include <gtest/gtest.h>

#include "baseline/blum_paar.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/schedule.hpp"
#include "fpga/device_model.hpp"
#include "testutil.hpp"

namespace mont::baseline {
namespace {

using bignum::BigUInt;
using bignum::RandomBigUInt;

TEST(BlumPaar, RejectsBadModulus) {
  EXPECT_THROW(BlumPaarRadix2(BigUInt{10}), std::invalid_argument);
}

TEST(BlumPaar, MultiplyMatchesDefinition) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 16u, 64u, 128u}) {
    const BigUInt n = rng.OddExactBits(bits);
    BlumPaarRadix2 bp(n);
    const BigUInt two_n = n << 1;
    for (int trial = 0; trial < 8; ++trial) {
      const BigUInt x = rng.Below(two_n);
      const BigUInt y = rng.Below(two_n);
      // Their R also keeps outputs chainable below 2N.
      EXPECT_TRUE(test::IsChainableMontProduct(bp.Multiply(x, y), x, y, n,
                                               bp.R()))
          << "bits=" << bits;
    }
  }
}

TEST(BlumPaar, ModExpMatchesReference) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(96);
  // Their pre/post flow: the registry backend BlumPaarRadix2 multiplies
  // on, with R^2 mod N for their wider R.
  const auto engine = core::MakeEngine("blum-paar", n);
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt base = rng.Below(n);
    const BigUInt e = rng.ExactBits(64);
    EXPECT_EQ(engine->ModExp(base, e), BigUInt::ModExp(base, e, n));
  }
}

TEST(BlumPaar, UsesOneMoreIterationThanOurs) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(64);
  BlumPaarRadix2 bp(n);
  bignum::BitSerialMontgomery ours(n);
  EXPECT_EQ(bp.Iterations(), 64u + 3);
  EXPECT_EQ(bp.R(), ours.R() << 1) << "their Montgomery parameter is 2x ours";
  // Different R means different products for the same inputs...
  const BigUInt x = rng.Below(n), y = rng.Below(n);
  const BigUInt theirs = bp.Multiply(x, y) % n;
  const BigUInt mine = ours.MultiplyAlg2(x, y) % n;
  // ...related by exactly one extra halving.
  const BigUInt two_inv = BigUInt::ModInverse(BigUInt{2}, n);
  EXPECT_EQ(theirs, (mine * two_inv) % n);
}

TEST(BlumPaar, CycleCountDisadvantage) {
  for (const std::size_t l : {32u, 128u, 1024u}) {
    EXPECT_GT(BlumPaarRadix2::MultiplyCycles(l), core::MultiplyCycles(l));
    EXPECT_EQ(BlumPaarRadix2::MultiplyCycles(l) - core::MultiplyCycles(l), 2u)
        << "one extra iteration costs two clock cycles on the skewed array";
  }
}

TEST(BlumPaar, ProcessingElementIsSlowerThanOurCell) {
  // The paper's architectural argument: their PE carries 3 control bits and
  // four muxes on the data path, so its registered critical path must be
  // longer than our pure-combinational cell inside the full MMMC.
  const double theirs = BlumPaarRadix2::ClockPeriodNs();
  EXPECT_GT(theirs, 10.451 * 0.99) << "PE clock must not beat the MMMC clock";
  const rtl::Netlist pe = BlumPaarRadix2::BuildProcessingElement();
  const auto report = fpga::AnalyzeNetlist(pe);
  EXPECT_GE(report.lut_depth, 3u);
}

TEST(HighRadix, FewerCyclesButSlowerClock) {
  const HighRadixModel radix4{.radix_bits = 4};
  const HighRadixModel radix16{.radix_bits = 16};
  const std::size_t l = 1024;
  const std::uint64_t ours = core::MultiplyCycles(l);
  EXPECT_LT(radix4.MultiplyCycles(l), ours);
  EXPECT_LT(radix16.MultiplyCycles(l), radix4.MultiplyCycles(l));
  EXPECT_GT(radix4.ClockPeriodNs(), BlumPaarRadix2::ClockPeriodNs());
  EXPECT_GT(radix16.ClockPeriodNs(), radix4.ClockPeriodNs());
}

TEST(FinalSubtraction, CostsOneExtraPass) {
  for (const std::size_t l : {32u, 256u, 1024u}) {
    EXPECT_EQ(FinalSubtractionModel::MultiplyCycles(l),
              core::MultiplyCycles(l) + l + 1);
  }
}

}  // namespace
}  // namespace mont::baseline
