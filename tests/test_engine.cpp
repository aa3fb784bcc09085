// Tests for the unified multiplication-backend interface (core/engine.hpp):
//
//   * registry contents, unknown-name and capability-mismatch error paths;
//   * the cross-engine equivalence matrix: every registered backend is
//     bit-identical on a shared operand sweep — plain products through the
//     ToMont/Multiply/FromMont round trip, and full ModExp — in GF(p) and,
//     where supported, GF(2^m);
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
#include "core/schedule.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;

std::vector<std::string> AllNames() { return EngineRegistry::Global().Names(); }

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
    std::vector<std::unique_ptr<MmmEngine>> engines;
    for (const std::string& name : AllNames()) {
      engines.push_back(MakeEngine(name, n));
      EXPECT_EQ(engines.back()->Modulus(), n);
      EXPECT_EQ(engines.back()->l(), bits);
    }
    for (int trial = 0; trial < 6; ++trial) {
      // Operands below N sit inside every backend's chainable window.
      const BigUInt x = rng.Below(n), y = rng.Below(n);
      const BigUInt want_product = (x * y) % n;
      const BigUInt e = rng.ExactBits(bits);
      const BigUInt want_power = BigUInt::ModExp(x, e, n);
      for (const auto& engine : engines) {
        // Plain product through the engine's own Montgomery domain.
        EXPECT_EQ(engine->FromMont(
                      engine->Multiply(engine->ToMont(x), engine->ToMont(y))),
                  want_product)
            << engine->Name() << " bits=" << bits;
        // Full exponentiation.
        EXPECT_EQ(engine->ModExp(x, e), want_power)
            << engine->Name() << " bits=" << bits;
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
    std::vector<std::unique_ptr<MmmEngine>> engines;
    for (const char* name : {"bit-serial", "mmmc", "netlist-sim"}) {
      engines.push_back(MakeEngine(name, f, gf2));
      EXPECT_EQ(engines.back()->Field(), EngineField::kGf2);
      EXPECT_EQ(engines.back()->l(), m);
    }
    for (int trial = 0; trial < 8; ++trial) {
      const BigUInt a = rng.Below(BigUInt::PowerOfTwo(m));
      const BigUInt b = rng.Below(BigUInt::PowerOfTwo(m));
      const BigUInt want_product = field.Mul(a, b);
      const BigUInt raw = bignum::gf2::MontMul(a, b, f);
      const BigUInt e = rng.ExactBits(m);
      const BigUInt want_power = field.Pow(a, e);
      for (const auto& engine : engines) {
        EXPECT_EQ(engine->Multiply(a, b), raw) << engine->Name();
        EXPECT_EQ(engine->FromMont(
                      engine->Multiply(engine->ToMont(a), engine->ToMont(b))),
                  want_product)
            << engine->Name();
        EXPECT_EQ(engine->ModExp(a, e), want_power) << engine->Name();
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
  const auto engine = MakeEngine("bit-serial", n);
  EngineStats stats;
  engine->ModExp(base, e, &stats);
  EXPECT_EQ(stats.mmm_invocations,
            stats.squarings + stats.multiplications + 2);
  EXPECT_EQ(stats.engine_cycles,
            stats.mmm_invocations * MultiplyCycles(engine->l()));
  EXPECT_EQ(stats.paper_model_cycles,
            ExponentiationCycles(engine->l(), stats.squarings,
                                 stats.multiplications));
  // The cycle-accurate array measures exactly what the model charges.
  EngineStats measured;
  MakeEngine("mmmc", n)->ModExp(base, e, &measured);
  EXPECT_EQ(measured.engine_cycles, stats.engine_cycles);
  EXPECT_EQ(measured.squarings, stats.squarings);
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
  std::uint64_t mmm_count = 0;
  const BigUInt e = rng.ExactBits(16);
  EXPECT_EQ(baseline_model.ModExp(BigUInt{5}, e, &mmm_count),
            engine->ModExp(BigUInt{5}, e));
  EXPECT_GT(mmm_count, 0u);
}

}  // namespace
}  // namespace mont::core
