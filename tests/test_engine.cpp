// Tests for the unified multiplication-backend interface (core/engine.hpp):
//
//   * registry contents, unknown-name and capability-mismatch error paths;
//   * the cross-engine equivalence matrix: every registered backend is
//     bit-identical on a shared operand sweep — plain products through the
//     ToMont/Multiply/FromMont round trip, and full ModExp — in GF(p) and,
//     where supported, GF(2^m);
//   * the one §4.5 scan: on every backend and field, MmmEngine::ModExp, a
//     one-job DeterministicExecutor solo run and the reference agree on
//     edge exponents and out-of-window bases, and the two engine paths
//     report identical EngineStats (one single issue per MMM);
//   * raw Montgomery products agree across the engines sharing the
//     paper's parameter R = 2^(l+2);
//   * batch lanes (netlist-sim) match the scalar path;
//   * normalized EngineStats accounting and the baseline's delegation.
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/blum_paar.hpp"
#include "bignum/gf2.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "core/schedule.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;

std::vector<std::string> AllNames() { return EngineRegistry::Global().Names(); }

void ExpectStatsEqual(const EngineStats& got, const EngineStats& want,
                      const std::string& where) {
  EXPECT_EQ(got.squarings, want.squarings) << where;
  EXPECT_EQ(got.multiplications, want.multiplications) << where;
  EXPECT_EQ(got.mmm_invocations, want.mmm_invocations) << where;
  EXPECT_EQ(got.paired_issues, want.paired_issues) << where;
  EXPECT_EQ(got.single_issues, want.single_issues) << where;
  EXPECT_EQ(got.engine_cycles, want.engine_cycles) << where;
  EXPECT_EQ(got.paper_model_cycles, want.paper_model_cycles) << where;
  EXPECT_EQ(got.cancelled, want.cancelled) << where;
}

/// One backend over one modulus, exponentiated two ways: MmmEngine::ModExp
/// directly, and as a one-job solo run through a DeterministicExecutor on
/// the same backend.  Check() compares both with the reference value and
/// with each other, stat for stat, and asserts the solo accounting.
class OneScanCheck {
 public:
  OneScanCheck(const std::string& name, const BigUInt& modulus,
               const EngineOptions& options = {})
      : engine_(MakeEngine(name, modulus, options)),
        executor_(ServiceOptions(name, options)) {}

  const MmmEngine& Engine() const { return *engine_; }

  void Check(const BigUInt& base, const BigUInt& exponent,
             const BigUInt& want) {
    const std::string where = std::string(engine_->Name()) + " " +
                              EngineFieldName(engine_->Field()) +
                              " N=" + engine_->Modulus().ToHex() +
                              " base=" + base.ToHex() +
                              " e=" + exponent.ToHex();
    EngineStats direct;
    EXPECT_EQ(engine_->ModExp(base, exponent, &direct), want) << where;

    auto future = executor_.SubmitAt(executor_.Now(), engine_->Modulus(),
                                     base, exponent);
    executor_.RunUntilIdle();
    const ExpResult solo = future.get();
    EXPECT_FALSE(solo.paired) << where;
    EXPECT_EQ(solo.value, want) << where;
    ExpectStatsEqual(solo.stats, direct, where);

    const std::uint64_t mmm =
        exponent.IsZero() ? 0 : direct.squarings + direct.multiplications + 2;
    if (!exponent.IsZero()) {
      EXPECT_EQ(direct.squarings, exponent.BitLength() - 1) << where;
    }
    EXPECT_EQ(direct.mmm_invocations, mmm) << where;
    EXPECT_EQ(direct.single_issues, mmm) << where;
    EXPECT_EQ(direct.paired_issues, 0u) << where;
    EXPECT_EQ(direct.engine_cycles, mmm * engine_->MultiplyCyclesModel())
        << where;
    EXPECT_EQ(direct.paper_model_cycles,
              exponent.IsZero()
                  ? 0
                  : ExponentiationCycles(engine_->l(), direct.squarings,
                                         direct.multiplications))
        << where;
  }

 private:
  static ExpService::Options ServiceOptions(const std::string& name,
                                            const EngineOptions& options) {
    ExpService::Options service;
    service.workers = 1;
    service.engine_name = name;
    service.engine_options = options;
    return service;
  }

  std::unique_ptr<MmmEngine> engine_;
  DeterministicExecutor executor_;
};

/// 0, 1, 2, all ones, random, and one bit longer than the operands.
std::vector<BigUInt> EdgeExponents(bignum::RandomBigUInt& rng,
                                   std::size_t l) {
  return {BigUInt{0},
          BigUInt{1},
          BigUInt{2},
          BigUInt::PowerOfTwo(l) - BigUInt{1},
          rng.ExactBits(l),
          rng.ExactBits(l + 1)};
}

/// 0, 1, N-1, N, and two random values >= N (one below 2N, one wider).
std::vector<BigUInt> EdgeBases(bignum::RandomBigUInt& rng, const BigUInt& n) {
  return {BigUInt{0},        BigUInt{1},
          n - BigUInt{1},    n,
          n + rng.Below(n),  rng.ExactBits(2 * n.BitLength())};
}

TEST(EngineRegistry, ListsAllBuiltinBackends) {
  const auto names = AllNames();
  for (const char* expected :
       {"alg2-ref", "bit-serial", "blum-paar", "high-radix", "interleaved",
        "mmmc", "netlist-sim", "word-mont"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing backend " << expected;
  }
}

TEST(EngineRegistry, UnknownNameThrowsAndListsKnownNames) {
  try {
    MakeEngine("no-such-engine", BigUInt{23});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-engine"), std::string::npos);
    EXPECT_NE(message.find("mmmc"), std::string::npos)
        << "the error should list the registered backends";
  }
}

TEST(EngineRegistry, Gf2CapabilityMismatchThrows) {
  const BigUInt f{0x13};  // x^4 + x + 1
  const EngineOptions gf2{.field = EngineField::kGf2};
  for (const char* gfp_only :
       {"word-mont", "interleaved", "high-radix", "blum-paar", "alg2-ref"}) {
    EXPECT_THROW(MakeEngine(gfp_only, f, gf2), std::invalid_argument)
        << gfp_only;
    EXPECT_FALSE(EngineRegistry::Global().Find(gfp_only)->caps.gf2);
  }
  for (const char* dual : {"bit-serial", "mmmc", "netlist-sim"}) {
    EXPECT_TRUE(EngineRegistry::Global().Find(dual)->caps.gf2) << dual;
  }
}

TEST(EngineRegistry, InvalidModuliThrowPerField) {
  for (const std::string& name : AllNames()) {
    EXPECT_THROW(MakeEngine(name, BigUInt{24}), std::invalid_argument)
        << name << ": even GF(p) modulus";
    EXPECT_THROW(MakeEngine(name, BigUInt{1}), std::invalid_argument)
        << name << ": modulus 1";
  }
  const EngineOptions gf2{.field = EngineField::kGf2};
  // f(0) != 1 and deg(f) < 2 are invalid field polynomials.
  EXPECT_THROW(MakeEngine("bit-serial", BigUInt{0x12}, gf2),
               std::invalid_argument);
  EXPECT_THROW(MakeEngine("bit-serial", BigUInt{0x3}, gf2),
               std::invalid_argument);
}

TEST(EngineRegistry, HighRadixAlphaValidated) {
  EXPECT_THROW(MakeEngine("high-radix", BigUInt{23}, {.alpha = 0}),
               std::invalid_argument);
  EXPECT_THROW(MakeEngine("high-radix", BigUInt{23}, {.alpha = 33}),
               std::invalid_argument);
  EXPECT_NO_THROW(MakeEngine("high-radix", BigUInt{23}, {.alpha = 4}));
}

TEST(EngineRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(EngineRegistry::Global().Register("mmmc", {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cross-engine equivalence matrix, GF(p)
// ---------------------------------------------------------------------------

TEST(EngineMatrix, AllBackendsBitIdenticalOnGfpSweep) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {5u, 9u, 12u}) {
    const BigUInt n = rng.OddExactBits(bits);
    for (const std::string& name : AllNames()) {
      OneScanCheck check(name, n);
      const MmmEngine& engine = check.Engine();
      EXPECT_EQ(engine.Modulus(), n);
      EXPECT_EQ(engine.l(), bits);
      for (int trial = 0; trial < 6; ++trial) {
        // Operands below N sit inside every backend's chainable window;
        // a plain product through the engine's own Montgomery domain.
        const BigUInt x = rng.Below(n), y = rng.Below(n);
        EXPECT_EQ(engine.FromMont(
                      engine.Multiply(engine.ToMont(x), engine.ToMont(y))),
                  (x * y) % n)
            << name << " bits=" << bits;
      }
      // Full exponentiation, every solo path.
      for (const BigUInt& e : EdgeExponents(rng, bits)) {
        for (const BigUInt& x : EdgeBases(rng, n)) {
          check.Check(x, e, BigUInt::ModExp(x, e, n));
        }
      }
    }
  }
}

// The engines sharing the paper's Montgomery parameter R = 2^(l+2) agree
// on the *raw* product, not just after normalisation.
TEST(EngineMatrix, PaperRadixEnginesShareRawProducts) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(10);
  const BigUInt two_n = n << 1;
  const auto reference = MakeEngine("bit-serial", n);
  for (const char* name : {"mmmc", "interleaved", "netlist-sim"}) {
    const auto engine = MakeEngine(name, n);
    for (int trial = 0; trial < 8; ++trial) {
      const BigUInt x = rng.Below(two_n), y = rng.Below(two_n);
      EXPECT_EQ(engine->Multiply(x, y), reference->Multiply(x, y)) << name;
    }
    // Window enforcement: 2N itself is out of range.
    EXPECT_THROW(engine->Multiply(two_n, BigUInt{1}), std::invalid_argument)
        << name;
  }
}

// ---------------------------------------------------------------------------
// Cross-engine equivalence matrix, GF(2^m)
// ---------------------------------------------------------------------------

TEST(EngineMatrix, DualFieldBackendsBitIdenticalOnGf2Sweep) {
  auto rng = test::TestRng();
  const EngineOptions gf2{.field = EngineField::kGf2};
  for (const std::uint64_t poly : {0x13ull, 0x11bull}) {  // deg 4, deg 8 (AES)
    const BigUInt f{poly};
    const std::size_t m = bignum::gf2::Degree(f);
    const bignum::Gf2Field field(f);
    for (const char* name : {"bit-serial", "mmmc", "netlist-sim"}) {
      OneScanCheck check(name, f, gf2);
      const MmmEngine& engine = check.Engine();
      EXPECT_EQ(engine.Field(), EngineField::kGf2);
      EXPECT_EQ(engine.l(), m);
      for (int trial = 0; trial < 8; ++trial) {
        const BigUInt a = rng.Below(BigUInt::PowerOfTwo(m));
        const BigUInt b = rng.Below(BigUInt::PowerOfTwo(m));
        EXPECT_EQ(engine.Multiply(a, b), bignum::gf2::MontMul(a, b, f))
            << name;
        EXPECT_EQ(engine.FromMont(
                      engine.Multiply(engine.ToMont(a), engine.ToMont(b))),
                  field.Mul(a, b))
            << name;
      }
      // Bases f-1, f and wider polynomials are reduced mod f first.
      for (const BigUInt& e : EdgeExponents(rng, m)) {
        for (const BigUInt& a : EdgeBases(rng, f)) {
          check.Check(a, e, field.Pow(bignum::gf2::Mod(a, f), e));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch lanes, stats, delegation
// ---------------------------------------------------------------------------

TEST(Engine, NetlistBatchLanesMatchScalarPath) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(8);
  const BigUInt two_n = n << 1;
  const auto engine = MakeEngine("netlist-sim", n);
  ASSERT_EQ(engine->Caps().batch_lanes, 64u);
  std::vector<BigUInt> xs, ys;
  for (int j = 0; j < 10; ++j) {
    xs.push_back(rng.Below(two_n));
    ys.push_back(rng.Below(two_n));
  }
  std::uint64_t batch_cycles = 0;
  const auto batch = engine->MultiplyBatch(xs, ys, &batch_cycles);
  ASSERT_EQ(batch.size(), xs.size());
  for (std::size_t j = 0; j < xs.size(); ++j) {
    EXPECT_EQ(batch[j], engine->Multiply(xs[j], ys[j])) << "lane " << j;
  }
  // Ten products, one 64-lane pass: 3l+4 cycles total, not 10x.
  EXPECT_EQ(batch_cycles, MultiplyCycles(engine->l()));
}

TEST(Engine, StatsAccountingIsNormalized) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(24);
  const BigUInt base = rng.Below(n);
  const BigUInt e = rng.BalancedExactBits(24);
  const BigUInt want = BigUInt::ModExp(base, e, n);
  // OneScanCheck asserts the accounting identities on every backend; a
  // cycle-accurate backend passes them only because it measures exactly
  // what its model charges.
  for (const std::string& name : AllNames()) {
    OneScanCheck(name, n).Check(base, e, want);
  }
  const BigUInt f{0x11b};  // x^8 + x^4 + x^3 + x + 1
  const bignum::Gf2Field field(f);
  const BigUInt a = rng.Below(BigUInt::PowerOfTwo(8));
  for (const char* name : {"bit-serial", "mmmc", "netlist-sim"}) {
    OneScanCheck(name, f, {.field = EngineField::kGf2})
        .Check(a, e, field.Pow(a, e));
  }
  // The cycle-accurate array measures exactly what bit-serial charges.
  EngineStats charged, measured;
  MakeEngine("bit-serial", n)->ModExp(base, e, &charged);
  MakeEngine("mmmc", n)->ModExp(base, e, &measured);
  ExpectStatsEqual(measured, charged, "mmmc vs bit-serial");
}

TEST(Engine, BaselineDelegatesToRegistryBackend) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const baseline::BlumPaarRadix2 baseline_model(n);
  const auto engine = MakeEngine("blum-paar", n);
  for (int trial = 0; trial < 6; ++trial) {
    const BigUInt x = rng.Below(n << 1), y = rng.Below(n << 1);
    EXPECT_EQ(baseline_model.Multiply(x, y), engine->Multiply(x, y));
  }
  EXPECT_EQ(baseline::BlumPaarRadix2::MultiplyCycles(n.BitLength()),
            engine->MultiplyCyclesModel());
}

}  // namespace
}  // namespace mont::core
