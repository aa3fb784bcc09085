// Tests for the application layer: primality testing, RSA key generation /
// round trips / the CRT context (paired, sequential, blinded), and ECC
// point multiplication (the paper's future-work direction) with
// exhaustive checks on a tiny curve plus known-structure checks on P-192.
#include <gtest/gtest.h>

#include <string_view>
#include <utility>
#include <vector>

#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "core/schedule.hpp"
#include "crypto/ecc.hpp"
#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"
#include "testutil.hpp"

namespace mont::crypto {
namespace {

using bignum::BigUInt;
using bignum::RandomBigUInt;

// ---------------------------------------------------------------------------
// Primality (Miller-Rabin on the "word-mont" engine's ModExp)
// ---------------------------------------------------------------------------

TEST(Primality, SmallKnownValues) {
  auto rng = test::TestRng();
  EXPECT_FALSE(IsProbablePrime(BigUInt{0}, rng));
  EXPECT_FALSE(IsProbablePrime(BigUInt{1}, rng));
  EXPECT_TRUE(IsProbablePrime(BigUInt{2}, rng));
  EXPECT_TRUE(IsProbablePrime(BigUInt{3}, rng));
  EXPECT_FALSE(IsProbablePrime(BigUInt{4}, rng));
  EXPECT_TRUE(IsProbablePrime(BigUInt{997}, rng));
  EXPECT_FALSE(IsProbablePrime(BigUInt{1001}, rng));  // 7 * 11 * 13
  EXPECT_TRUE(IsProbablePrime(BigUInt{1000003}, rng));
  EXPECT_FALSE(IsProbablePrime(BigUInt{1000001}, rng));  // 101 * 9901
}

TEST(Primality, CarmichaelNumbersRejected) {
  auto rng = test::TestRng();
  // Carmichael numbers fool Fermat tests but not Miller-Rabin.
  for (const std::uint64_t c : {561ull, 1105ull, 1729ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(IsProbablePrime(BigUInt{c}, rng)) << c;
  }
}

TEST(Primality, KnownLargePrime) {
  auto rng = test::TestRng();
  // 2^127 - 1 is a Mersenne prime; 2^128 - 1 is composite.
  const BigUInt m127 = BigUInt::PowerOfTwo(127) - BigUInt{1};
  const BigUInt m128 = BigUInt::PowerOfTwo(128) - BigUInt{1};
  EXPECT_TRUE(IsProbablePrime(m127, rng));
  EXPECT_FALSE(IsProbablePrime(m128, rng));
}

TEST(Primality, GeneratePrimeHasRequestedShape) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {32u, 64u, 128u}) {
    const BigUInt p = GeneratePrime(bits, rng, 16);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(p.Bit(bits - 2)) << "second-highest bit must be forced";
    EXPECT_TRUE(p.IsOdd());
    EXPECT_TRUE(IsProbablePrime(p, rng, 16));
  }
}

// ---------------------------------------------------------------------------
// RSA
// ---------------------------------------------------------------------------

TEST(Rsa, GeneratedKeyShape) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(128, rng);
  EXPECT_EQ(key.n.BitLength(), 128u);
  EXPECT_EQ(key.p * key.q, key.n);
  EXPECT_TRUE(IsProbablePrime(key.p, rng, 8));
  EXPECT_TRUE(IsProbablePrime(key.q, rng, 8));
  // e*d = 1 mod lambda(n)
  const BigUInt p1 = key.p - BigUInt{1};
  const BigUInt q1 = key.q - BigUInt{1};
  const BigUInt lambda = (p1 * q1) / BigUInt::Gcd(p1, q1);
  EXPECT_TRUE(((key.e * key.d) % lambda).IsOne());
}

TEST(Rsa, RejectsBadParameters) {
  auto rng = test::TestRng();
  EXPECT_THROW(GenerateRsaKey(31, rng), std::invalid_argument);
  EXPECT_THROW(GenerateRsaKey(16, rng), std::invalid_argument);
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(128, rng);
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt m = rng.Below(key.n);
    const BigUInt c = RsaPublic(key, m);
    EXPECT_EQ(RsaPrivate(key, c), m);
  }
}

TEST(Rsa, CrtMatchesPlainDecryption) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(192, rng);
  const RsaCrtContext context(key);
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt m = rng.Below(key.n);
    const BigUInt c = RsaPublic(key, m);
    EXPECT_EQ(context.Sign(c), RsaPrivate(key, c));
  }
}

TEST(Rsa, HardwareModelAgreesAndReportsCycles) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(96, rng);
  const BigUInt m = rng.Below(key.n);
  const BigUInt c = RsaPublic(key, m);
  core::EngineStats stats;
  EXPECT_EQ(core::MakeEngine("bit-serial", key.n)->ModExp(c, key.d, &stats),
            m);
  EXPECT_GT(stats.engine_cycles, 0u);
  EXPECT_EQ(stats.mmm_invocations,
            stats.squarings + stats.multiplications + 2);
}

TEST(Rsa, MessageOutOfRangeThrows) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  EXPECT_THROW(RsaPublic(key, key.n), std::invalid_argument);
  EXPECT_THROW(RsaPrivate(key, key.n + BigUInt{1}), std::invalid_argument);
  EXPECT_THROW(RsaCrtContext(key).Sign(key.n), std::invalid_argument);
  EXPECT_THROW(RsaCrtContext(key, "word-mont").Sign(key.n),
               std::invalid_argument);
}

// Bellcore/Lenstra fault hygiene: a faulty CRT half-exponentiation yields
// a well-formed wrong signature whose gcd(sig^e - c, n) factors n.  Sign
// verifies sig^e mod n against the input on both the paired and the
// sequential branch, and must throw rather than release the broken
// result.  Fault injection: a corrupted private exponent makes both
// halves compute a wrong (but well-formed) power — the same observable
// as a computation fault.
TEST(Rsa, CrtFaultIsDetectedBeforeRelease) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  BigUInt m = rng.Below(key.n);
  if (m <= BigUInt{1}) m = BigUInt{2};
  const BigUInt c = RsaPublic(key, m);
  RsaKeyPair faulted = key;
  faulted.d = key.d + BigUInt{2};
  for (const char* engine : {"bit-serial", "word-mont"}) {
    ASSERT_EQ(RsaCrtContext(key, engine).Sign(c), m) << engine;  // releases
    EXPECT_THROW(RsaCrtContext(faulted, engine).Sign(c), std::runtime_error)
        << engine;
  }
}

// A backend without pairable streams still computes CRT — sequentially,
// charging both halves' MMMs as single issues.
TEST(Rsa, CrtPairedFallsBackForUnpairableBackends) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  const BigUInt m = rng.Below(key.n);
  const BigUInt c = RsaPublic(key, m);
  const RsaCrtContext context(key, "word-mont");
  core::EngineStats stats;
  EXPECT_EQ(context.Sign(c, &stats), m);
  EXPECT_EQ(stats.paired_issues, 0u);  // word-serial: sequential issue
  core::EngineStats stats_p, stats_q;
  core::MakeEngine("word-mont", key.p)->ModExp(c % key.p, context.dp(),
                                               &stats_p);
  core::MakeEngine("word-mont", key.q)->ModExp(c % key.q, context.dq(),
                                               &stats_q);
  EXPECT_EQ(stats.single_issues,
            stats_p.mmm_invocations + stats_q.mmm_invocations);
  EXPECT_EQ(stats.engine_cycles, stats_p.engine_cycles + stats_q.engine_cycles);
}

// A hand-assembled CRT key with p == q, p*q != n, p = 1 or a q with no
// inverse mod p would recombine to a well-formed wrong answer (or divide
// by zero); the context must reject it loudly, with the documented type.
TEST(Rsa, MalformedCrtKeysAreRejected) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  ASSERT_NE(key.p, key.q);  // GenerateRsaKey must never emit p == q

  RsaKeyPair equal_primes = key;
  equal_primes.q = equal_primes.p;
  equal_primes.n = equal_primes.p * equal_primes.p;
  RsaKeyPair mismatched = key;
  mismatched.n += BigUInt{2};  // p*q != n
  RsaKeyPair unit_p = key;     // p = 1, q = n: p*q == n, but p-1 == 0
  unit_p.p = BigUInt{1};
  unit_p.q = key.n;
  RsaKeyPair unit_q = unit_p;
  std::swap(unit_q.p, unit_q.q);
  RsaKeyPair shared_factor = key;  // 9 * 15 = 135: 15 has no inverse mod 9
  shared_factor.p = BigUInt{9};
  shared_factor.q = BigUInt{15};
  shared_factor.n = BigUInt{135};
  for (const RsaKeyPair* bad :
       {&equal_primes, &mismatched, &unit_p, &unit_q, &shared_factor}) {
    for (const char* engine : {"bit-serial", "word-mont"}) {
      EXPECT_THROW(RsaCrtContext(*bad, engine), std::invalid_argument)
          << "p=" << bad->p.ToDec() << " q=" << bad->q.ToDec() << " "
          << engine;
    }
  }
}

// ---------------------------------------------------------------------------
// RsaCrtContext: the one CRT private-key path
// ---------------------------------------------------------------------------

// Sign is bit-identical to the plain c^d oracle on the engines that pair
// on lanes (bit-serial; AVX-512 IFMA hosts take the SIMD path), pair on
// BigUInt (alg2-ref) and run sequentially (word-mont), over edge inputs
// (0, 1, n-1, multiples of p and of q) and random ones.  Its stats are
// exactly the pair's shared accounting: paired * (3l+5) + single * (3l+4).
TEST(RsaCrtContext, SignMatchesPlainOnEveryEngineAndEdgeInput) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(128, rng);
  std::vector<BigUInt> inputs = {BigUInt{0},         BigUInt{1},
                                 key.n - BigUInt{1}, key.p,
                                 key.p * BigUInt{3}, key.q,
                                 key.q * BigUInt{2}, key.q * (key.p - BigUInt{1})};
  for (int trial = 0; trial < 4; ++trial) inputs.push_back(rng.Below(key.n));
  const std::size_t l = key.p.BitLength();
  ASSERT_EQ(key.q.BitLength(), l);
  for (const char* engine : {"bit-serial", "alg2-ref", "word-mont"}) {
    const RsaCrtContext context(key, engine);
    const bool pairs = std::string_view(engine) != "word-mont";
    const auto engine_p = core::MakeEngine(engine, key.p);
    const auto engine_q = core::MakeEngine(engine, key.q);
    for (const BigUInt& c : inputs) {
      core::EngineStats stats;
      EXPECT_EQ(context.Sign(c, &stats), RsaPrivate(key, c))
          << engine << " c=" << c.ToHex();
      if (!pairs) {
        EXPECT_EQ(stats.paired_issues, 0u) << engine;
        continue;
      }
      const core::EngineStats want =
          core::PairedModExp(*engine_p, c % key.p, context.dp(), *engine_q,
                             c % key.q, context.dq())
              .stats;
      EXPECT_EQ(stats.paired_issues, want.paired_issues) << engine;
      EXPECT_EQ(stats.single_issues, want.single_issues) << engine;
      EXPECT_EQ(stats.engine_cycles, want.engine_cycles) << engine;
      EXPECT_GT(stats.paired_issues, 0u) << engine;
      EXPECT_EQ(stats.engine_cycles,
                stats.paired_issues * core::PairedMultiplyCycles(l) +
                    stats.single_issues * core::MultiplyCycles(l))
          << engine;
    }
  }
}

// ---------------------------------------------------------------------------
// RSA blinding (the sca lab's countermeasure; closure is asserted at gate
// level in test_sca_attack.cpp — here: functional equivalence)
// ---------------------------------------------------------------------------

// Acceptance: blinded outputs bit-identical to unblinded on a randomized
// sweep, for every option combination, on a paired and a sequential
// engine.
TEST(RsaBlinding, BlindedMatchesUnblindedOnRandomSweep) {
  auto rng = test::TestRng();
  bignum::RandomBigUInt blind_rng(test::TestSeed(1));
  for (const std::size_t bits : {64u, 96u}) {
    const RsaKeyPair key = GenerateRsaKey(bits, rng);
    for (const char* engine : {"bit-serial", "word-mont"}) {
      const RsaCrtContext context(key, engine);
      for (int trial = 0; trial < 6; ++trial) {
        const BigUInt c = rng.Below(key.n);
        const BigUInt expected = RsaPrivate(key, c);
        for (const bool blind_base : {true, false}) {
          for (const std::size_t blind_bits :
               {std::size_t{0}, std::size_t{16}}) {
            const RsaBlindingOptions options{blind_base, blind_bits};
            EXPECT_EQ(context.Sign(c, nullptr, &blind_rng, options), expected)
                << "bits=" << bits << " " << engine
                << " base=" << blind_base << " exp_bits=" << blind_bits;
          }
        }
      }
    }
  }
}

// Base blinding must actually randomize what the device exponentiates:
// two blinded runs of the same input consume fresh blinding randomness
// (the rng stream advances), yet agree; exponent blinding visibly
// lengthens the schedule.
TEST(RsaBlinding, FreshRandomnessPerCallSameResult) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  const BigUInt c = rng.Below(key.n);
  const RsaCrtContext context(key);
  bignum::RandomBigUInt blind_rng(test::TestSeed(2));
  bignum::RandomBigUInt untouched(test::TestSeed(2));
  const BigUInt first = context.Sign(c, nullptr, &blind_rng);
  const BigUInt second = context.Sign(c, nullptr, &blind_rng);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, RsaPrivate(key, c));
  EXPECT_NE(blind_rng.Below(key.n), untouched.Below(key.n));
  core::EngineStats plain, blinded;
  context.Sign(c, &plain);
  context.Sign(c, &blinded, &blind_rng, RsaBlindingOptions{false, 16});
  // The pair's stats carry issue counts: 2 MMMs per paired issue.
  EXPECT_GT(2 * blinded.paired_issues + blinded.single_issues,
            2 * plain.paired_issues + plain.single_issues);
}

TEST(RsaBlinding, RejectsBadInputsAndKeys) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  bignum::RandomBigUInt blind_rng(test::TestSeed(3));
  EXPECT_THROW(RsaCrtContext(key).Sign(key.n, nullptr, &blind_rng),
               std::invalid_argument);
  // Exponent blinding needs the real factorization for the group orders;
  // a key that lies about it is refused when the context is built.
  RsaKeyPair mismatched = key;
  mismatched.n += BigUInt{2};
  EXPECT_THROW(RsaCrtContext{mismatched}, std::invalid_argument);
}

// The blinded Sign keeps the Bellcore/Lenstra fault check: corrupt the
// private exponent and the fault must be detected, not released.
TEST(RsaBlinding, CrtBlindedStillDetectsFaults) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  bignum::RandomBigUInt blind_rng(test::TestSeed(4));
  RsaKeyPair faulty = key;
  faulty.d += RsaLambda(key);  // same signatures...
  faulty.d += BigUInt{1};   // ...then corrupted
  const BigUInt c = rng.Below(key.n);
  const RsaCrtContext context(faulty);
  EXPECT_THROW(context.Sign(c, nullptr, &blind_rng), std::runtime_error);
  EXPECT_THROW(context.Sign(c, nullptr, &blind_rng, RsaBlindingOptions{true, 16}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// ECC
// ---------------------------------------------------------------------------

TEST(Ecc, TinyCurveGeneratorOnCurve) {
  const Curve curve(CurveParams::Tiny97());
  EXPECT_TRUE(curve.IsOnCurve(curve.Generator()));
  EXPECT_TRUE(curve.IsOnCurve(AffinePoint::Infinity()));
  EXPECT_FALSE(curve.IsOnCurve(AffinePoint{BigUInt{1}, BigUInt{1}, false}));
}

// Exhaustive group-law check on the tiny curve: the affine reference and
// the Montgomery-domain Jacobian path must agree for every scalar.
TEST(Ecc, TinyCurveScalarMulMatchesRepeatedAddition) {
  const Curve curve(CurveParams::Tiny97());
  const AffinePoint g = curve.Generator();
  AffinePoint acc = AffinePoint::Infinity();
  for (std::uint64_t k = 0; k <= 120; ++k) {
    const AffinePoint via_jacobian = curve.ScalarMul(BigUInt{k}, g);
    EXPECT_EQ(via_jacobian, acc) << "k=" << k;
    EXPECT_TRUE(curve.IsOnCurve(acc));
    acc = curve.Add(acc, g);
  }
}

TEST(Ecc, TinyCurveGroupOrder) {
  // Find the order of G by repeated addition; ScalarMul(order) must be the
  // identity and the order must divide any k*G period.
  const Curve curve(CurveParams::Tiny97());
  const AffinePoint g = curve.Generator();
  AffinePoint acc = g;
  std::uint64_t order = 1;
  while (!acc.infinity) {
    acc = curve.Add(acc, g);
    ++order;
    ASSERT_LE(order, 200u);
  }
  // Hasse bound: |order - (p+1)| <= 2*sqrt(p) (order divides group order).
  EXPECT_GT(order, 1u);
  EXPECT_TRUE(curve.ScalarMul(BigUInt{order}, g).infinity);
  EXPECT_EQ(curve.ScalarMul(BigUInt{order + 1}, g), g);
}

TEST(Ecc, AdditionIsCommutativeAndAssociative) {
  const Curve curve(CurveParams::Tiny97());
  const AffinePoint g = curve.Generator();
  const AffinePoint g2 = curve.Double(g);
  const AffinePoint g3 = curve.Add(g2, g);
  EXPECT_EQ(curve.Add(g, g2), g3);
  EXPECT_EQ(curve.Add(curve.Add(g, g2), g3), curve.Add(g, curve.Add(g2, g3)));
}

TEST(Ecc, NegationAndIdentity) {
  const Curve curve(CurveParams::Tiny97());
  const AffinePoint g = curve.Generator();
  const AffinePoint neg = curve.Negate(g);
  EXPECT_TRUE(curve.IsOnCurve(neg));
  EXPECT_TRUE(curve.Add(g, neg).infinity);
  EXPECT_EQ(curve.Add(g, AffinePoint::Infinity()), g);
}

TEST(Ecc, P192GeneratorIsOnCurve) {
  const Curve curve(CurveParams::Secp192r1());
  EXPECT_TRUE(curve.IsOnCurve(curve.Generator()));
}

TEST(Ecc, P192OrderAnnihilatesGenerator) {
  const Curve curve(CurveParams::Secp192r1());
  // n*G computed as (n-1)*G + G to exercise both add paths; n*G = infinity.
  const AffinePoint g = curve.Generator();
  const AffinePoint almost =
      curve.ScalarMul(curve.Params().order - BigUInt{1}, g);
  EXPECT_TRUE(curve.IsOnCurve(almost));
  EXPECT_EQ(almost, curve.Negate(g)) << "(n-1)G must equal -G";
  EXPECT_TRUE(curve.Add(almost, g).infinity);
}

TEST(Ecc, P192ScalarMulIsHomomorphic) {
  auto rng = test::TestRng();
  const Curve curve(CurveParams::Secp192r1());
  const AffinePoint g = curve.Generator();
  const BigUInt k1 = rng.ExactBits(64);
  const BigUInt k2 = rng.ExactBits(64);
  const AffinePoint lhs = curve.ScalarMul(k1 + k2, g);
  const AffinePoint rhs = curve.Add(curve.ScalarMul(k1, g),
                                    curve.ScalarMul(k2, g));
  EXPECT_EQ(lhs, rhs);
}

TEST(Ecc, EcdhSharedSecretAgrees) {
  auto rng = test::TestRng();
  const Curve curve(CurveParams::Secp192r1());
  const AffinePoint g = curve.Generator();
  const BigUInt alice = rng.ExactBits(160);
  const BigUInt bob = rng.ExactBits(160);
  const AffinePoint alice_pub = curve.ScalarMul(alice, g);
  const AffinePoint bob_pub = curve.ScalarMul(bob, g);
  EXPECT_EQ(curve.ScalarMul(alice, bob_pub), curve.ScalarMul(bob, alice_pub));
}

TEST(Ecc, StatsCountFieldMultiplications) {
  const Curve curve(CurveParams::Secp192r1());
  EccStats stats;
  curve.ScalarMul(BigUInt::FromHex("deadbeefcafebabe"), curve.Generator(),
                  &stats);
  EXPECT_GT(stats.field_mults, 0u);
  EXPECT_GT(stats.field_squares, 0u);
  // 64-bit scalar: 63 doubles (~11M each) + ~40 adds (~16M each) + the
  // final Jacobian-to-affine conversion.
  const std::uint64_t total = stats.field_mults + stats.field_squares;
  EXPECT_GT(total, 63u * 8);
  EXPECT_LT(total, 64u * 12 + 45u * 17 + 20);
  EXPECT_EQ(stats.ModeledCycles(192), total * (3 * 192 + 4));
}

TEST(Ecc, ScalarReducedModuloOrder) {
  const Curve curve(CurveParams::Secp192r1());
  const AffinePoint g = curve.Generator();
  const BigUInt k{12345};
  EXPECT_EQ(curve.ScalarMul(k + curve.Params().order, g),
            curve.ScalarMul(k, g));
  EXPECT_TRUE(curve.ScalarMul(curve.Params().order, g).infinity);
  EXPECT_TRUE(curve.ScalarMul(BigUInt{0}, g).infinity);
}

}  // namespace
}  // namespace mont::crypto
