// Differential suite for the word-level Montgomery kernel
// (bignum/mont_kernel.hpp), ctest label `kernel`:
//
//   * the kernel at R = 2^(l+2) against the Algorithm-2 bit loop
//     (BitSerialMontgomery::MultiplyAlg2) and against REDC evaluated by its
//     definition in BigUInt;
//   * the kernel at R = 2^(32s) against the word-level CIOS/SOS/FIPS
//     references and the fully reduced (x*y*R^-1) mod N;
//   * the engines built on it ("bit-serial", "word-mont", "blum-paar")
//     against the "alg2-ref" oracle engine, CIOS and REDC by definition,
//     with their cycle charges;
//   * every registry engine's ModExp against BigUInt::ModExp;
//   * the limb API: aliasing, dirty scratch, and no heap allocation.
//
// Moduli straddle the 32/64-bit limb boundaries (l = 63/64/65, 127/128/129,
// 1023/1024/1025) and include all-ones moduli and moduli whose top limb
// is 1; operands include 0, 1, N-1, N, 2N-1 and all-ones words.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bignum/mont_kernel.hpp"
#include "bignum/montgomery.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "core/schedule.hpp"
#include "testutil.hpp"

// Counts every global operator-new call in this binary, so a test can
// assert that a code region performs no heap allocation.  The replacement
// pair is malloc/free based by design; GCC's mismatch check cannot see
// that the two replace each other.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace mont {
namespace {

using bignum::BigUInt;
using bignum::BitSerialMontgomery;
using bignum::MontKernel;
using bignum::WordMontgomery;

constexpr std::size_t kLengths[] = {63, 64, 65, 127, 128, 129, 1023, 1024, 1025};

BigUInt AllOnes(std::size_t bits) {
  return BigUInt::PowerOfTwo(bits) - BigUInt{1};
}

/// Moduli of bit length l: a random odd one, the all-ones 2^l - 1, and
/// 2^(l-1) + 1, whose top 32- and 64-bit limbs are 1 when l = 1 mod 64.
std::vector<BigUInt> ModuliOfLength(std::size_t l, bignum::RandomBigUInt& rng) {
  return {rng.OddExactBits(l), AllOnes(l),
          BigUInt::PowerOfTwo(l - 1) + BigUInt{1}};
}

/// Edge operands below `bound`: 0, 1, N-1, N, 2N-1, and all-ones values
/// at the limb boundaries and at l, l+1 bits.
std::vector<BigUInt> EdgeOperands(const BigUInt& n, const BigUInt& bound) {
  const std::size_t l = n.BitLength();
  const std::size_t words = (l + 63) / 64;
  std::vector<BigUInt> candidates = {BigUInt{}, BigUInt{1}, n - BigUInt{1}, n,
                                     (n << 1) - BigUInt{1}};
  for (const std::size_t w : {std::size_t{32}, std::size_t{64}, 64 * words - 64,
                              64 * words - 32, 64 * words, l - 1, l, l + 1}) {
    if (w > 0) candidates.push_back(AllOnes(w));
  }
  std::vector<BigUInt> out;
  for (const BigUInt& v : candidates) {
    if (v < bound && std::find(out.begin(), out.end(), v) == out.end()) {
      out.push_back(v);
    }
  }
  return out;
}

/// Edge operands plus `random` uniform ones, all below `bound`.
std::vector<BigUInt> Operands(const BigUInt& n, const BigUInt& bound,
                              bignum::RandomBigUInt& rng, int random) {
  std::vector<BigUInt> out = EdgeOperands(n, bound);
  for (int i = 0; i < random; ++i) out.push_back(rng.Below(bound));
  return out;
}

/// REDC by its definition: (x*y + m*N) / 2^r, m = -x*y*N^-1 mod 2^r.
BigUInt RedcByDefinition(const BigUInt& x, const BigUInt& y, const BigUInt& n,
                         std::size_t r) {
  const BigUInt two_r = BigUInt::PowerOfTwo(r);
  const BigUInt xy = x * y;
  const BigUInt n_inv = BigUInt::ModInverse(n % two_r, two_r);
  const BigUInt m = (two_r - (xy * n_inv) % two_r) % two_r;
  const BigUInt sum = xy + m * n;
  EXPECT_TRUE((sum % two_r).IsZero());
  return sum >> r;
}

/// (x*y*R^-1) mod N with R^-1 mod N precomputed.
BigUInt MontByDefinition(const BigUInt& x, const BigUInt& y, const BigUInt& n,
                         const BigUInt& r_inv) {
  return (x * y % n) * r_inv % n;
}

BigUInt RInverse(const BigUInt& n, std::size_t r) {
  return BigUInt::ModInverse(BigUInt::PowerOfTwo(r) % n, n);
}

class KernelDifferential : public ::testing::TestWithParam<std::size_t> {};

// The kernel at R = 2^(l+2) returns Algorithm 2's exact representative.
TEST_P(KernelDifferential, MatchesAlgorithm2Oracle) {
  const std::size_t l = GetParam();
  auto rng = test::TestRng();
  for (const BigUInt& n : ModuliOfLength(l, rng)) {
    const BitSerialMontgomery oracle(n);
    const MontKernel kernel(n, l + 2, MontKernel::Window::kTwoN);
    const BigUInt two_n = n << 1;
    const BigUInt r_inv = RInverse(n, l + 2);
    const auto ops = Operands(n, two_n, rng, 4);
    for (const BigUInt& x : ops) {
      for (const BigUInt& y : ops) {
        const BigUInt got = kernel.Multiply(x, y);
        ASSERT_EQ(got, oracle.MultiplyAlg2(x, y))
            << "l=" << l << " N=0x" << n.ToHex() << " x=0x" << x.ToHex()
            << " y=0x" << y.ToHex();
        ASSERT_LT(got, two_n);
        ASSERT_EQ(got % n, MontByDefinition(x, y, n, r_inv));
        ASSERT_EQ(oracle.Multiply(x, y), got);
      }
    }
    EXPECT_EQ(kernel.Multiply(ops.back(), ops.front()),
              RedcByDefinition(ops.back(), ops.front(), n, l + 2));
  }
}

// The kernel at R = 2^(32s) returns the fully reduced CIOS output.
TEST_P(KernelDifferential, MatchesCiosAtWordParameter) {
  const std::size_t l = GetParam();
  auto rng = test::TestRng();
  for (const BigUInt& n : ModuliOfLength(l, rng)) {
    const WordMontgomery cios(n);
    const std::size_t r = BigUInt::kLimbBits * n.LimbCount();
    const MontKernel kernel(n, r, MontKernel::Window::kN);
    const BigUInt r_inv = RInverse(n, r);
    const auto ops = Operands(n, n, rng, 4);
    for (const BigUInt& x : ops) {
      for (const BigUInt& y : ops) {
        const BigUInt got = kernel.Multiply(x, y);
        ASSERT_EQ(got, cios.Multiply(x, y, WordMontgomery::Variant::kCios))
            << "l=" << l << " N=0x" << n.ToHex() << " x=0x" << x.ToHex()
            << " y=0x" << y.ToHex();
        ASSERT_EQ(got, cios.Multiply(x, y, WordMontgomery::Variant::kSos));
        ASSERT_EQ(got, cios.Multiply(x, y, WordMontgomery::Variant::kFips));
        ASSERT_EQ(got, MontByDefinition(x, y, n, r_inv));
      }
    }
  }
}

// For any R = 2^r > N the kernel is REDC itself: the full-word steps, the
// masked partial step and the shift compose to (x*y + m*N) / 2^r.
TEST_P(KernelDifferential, IsExactRedcForEveryExponentSplit) {
  const std::size_t l = GetParam();
  const std::size_t words = (l + 63) / 64;
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(l);
  const auto ops = Operands(n, n, rng, 3);
  for (const std::size_t r : {l, l + 1, l + 2, l + 3, 64 * words,
                              64 * words + 1, 64 * words + 63,
                              64 * words + 64}) {
    const MontKernel kernel(n, r, MontKernel::Window::kTwoN);
    for (const BigUInt& x : ops) {
      for (const BigUInt& y : ops) {
        ASSERT_EQ(kernel.Multiply(x, y), RedcByDefinition(x, y, n, r))
            << "l=" << l << " r=" << r << " x=0x" << x.ToHex()
            << " y=0x" << y.ToHex();
      }
    }
  }
}

// The engines on the kernel agree with the oracle engine, with CIOS and
// with REDC by definition, and keep their operand windows and cycle
// charges.
TEST_P(KernelDifferential, EnginesMatchOracleEngineAndCios) {
  const std::size_t l = GetParam();
  auto rng = test::TestRng();
  for (const BigUInt& n : ModuliOfLength(l, rng)) {
    const auto bit_serial = core::MakeEngine("bit-serial", n);
    const auto oracle = core::MakeEngine("alg2-ref", n);
    const auto word = core::MakeEngine("word-mont", n);
    const auto blum_paar = core::MakeEngine("blum-paar", n);
    const WordMontgomery cios(n);
    const BigUInt two_n = n << 1;
    const auto wide = Operands(n, two_n, rng, 2);
    for (const BigUInt& x : wide) {
      for (const BigUInt& y : wide) {
        std::uint64_t fast_cycles = 0, oracle_cycles = 0;
        ASSERT_EQ(bit_serial->Multiply(x, y, &fast_cycles),
                  oracle->Multiply(x, y, &oracle_cycles))
            << "l=" << l << " x=0x" << x.ToHex() << " y=0x" << y.ToHex();
        ASSERT_EQ(fast_cycles, 3 * l + 4);
        ASSERT_EQ(oracle_cycles, 3 * l + 4);
        // Blum-Paar's radix-2 loop runs l+3 iterations: REDC, R = 2^(l+3).
        std::uint64_t bp_cycles = 0;
        ASSERT_EQ(blum_paar->Multiply(x, y, &bp_cycles),
                  RedcByDefinition(x, y, n, l + 3))
            << "blum-paar l=" << l << " x=0x" << x.ToHex();
        ASSERT_EQ(bp_cycles, 3 * l + 6);
      }
    }
    const auto narrow = Operands(n, n, rng, 2);
    const std::uint64_t s = n.LimbCount();
    for (const BigUInt& x : narrow) {
      for (const BigUInt& y : narrow) {
        std::uint64_t cycles = 0;
        ASSERT_EQ(word->Multiply(x, y, &cycles),
                  cios.Multiply(x, y, WordMontgomery::Variant::kCios))
            << "l=" << l << " x=0x" << x.ToHex() << " y=0x" << y.ToHex();
        ASSERT_EQ(cycles, 2 * s * s + s);
      }
    }
    EXPECT_EQ(bit_serial->MontFactor(), oracle->MontFactor());
    EXPECT_THROW(bit_serial->Multiply(two_n, BigUInt{1}), std::invalid_argument);
    EXPECT_THROW(oracle->Multiply(BigUInt{1}, two_n), std::invalid_argument);
    EXPECT_THROW(word->Multiply(n, BigUInt{1}), std::invalid_argument);
  }
}

// Every registry engine's ModExp is BigUInt::ModExp.  The clock-by-clock
// and gate-level models get one base and the exponents 0 and 5 (pre- and
// post-processing, squarings and a multiply), the other engines five
// bases and 1 and a 16-bit exponent too, and the engines on the kernel a
// full-length one.
TEST_P(KernelDifferential, EveryRegistryEngineModExpMatchesBigUInt) {
  const std::size_t l = GetParam();
  auto rng = test::TestRng();
  for (const BigUInt& n : ModuliOfLength(l, rng)) {
    const BigUInt medium = rng.ExactBits(16);
    const BigUInt full = rng.ExactBits(l);
    for (const std::string& name : core::EngineRegistry::Global().Names()) {
      const auto engine = core::MakeEngine(name, n);
      const bool simulated =
          engine->Caps().cycle_accurate || engine->Caps().dual_modulus;
      std::vector<BigUInt> exponents = {BigUInt{}, BigUInt{5}};
      if (!simulated) {
        exponents.push_back(BigUInt{1});
        exponents.push_back(medium);
      }
      if (name == "bit-serial" || name == "word-mont") exponents.push_back(full);
      const std::vector<BigUInt> bases =
          simulated ? std::vector<BigUInt>{n - BigUInt{1}}
                    : std::vector<BigUInt>{BigUInt{}, BigUInt{1},
                                           n - BigUInt{1}, n, rng.Below(n)};
      for (const BigUInt& base : bases) {
        for (const BigUInt& e : exponents) {
          ASSERT_EQ(engine->ModExp(base, e), BigUInt::ModExp(base, e, n))
              << name << " l=" << l << " N=0x" << n.ToHex() << " base=0x"
              << base.ToHex() << " e=0x" << e.ToHex();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, KernelDifferential,
                         ::testing::ValuesIn(kLengths),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "l" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Limb API
// ---------------------------------------------------------------------------

TEST(MontKernel, RejectsBadParameters) {
  using W = MontKernel::Window;
  EXPECT_THROW(MontKernel(BigUInt{24}, 8, W::kTwoN), std::invalid_argument);
  EXPECT_THROW(MontKernel(BigUInt{1}, 8, W::kTwoN), std::invalid_argument);
  EXPECT_THROW(MontKernel(BigUInt{0x1ff}, 8, W::kN), std::invalid_argument);
  EXPECT_NO_THROW(MontKernel(BigUInt{0x1ff}, 9, W::kN));
}

// Raw limb calls: out may alias an operand, and the scratch contents on
// entry do not matter.
TEST(MontKernel, LimbApiAliasesAndIgnoresScratchContents) {
  auto rng = test::TestRng();
  for (const std::size_t l : {65u, 1024u}) {
    const BigUInt n = rng.OddExactBits(l);
    const MontKernel kernel(n, l + 2, MontKernel::Window::kTwoN);
    const std::size_t k = kernel.Limbs();
    const BigUInt x = rng.Below(n << 1), y = rng.Below(n << 1);
    const BigUInt want = kernel.Multiply(x, y);

    std::vector<MontKernel::Limb> xw(k), yw(k), out(k);
    std::vector<MontKernel::Limb> scratch(kernel.ScratchLimbs(),
                                          0xa5a5a5a5a5a5a5a5ull);
    x.ToWords64(xw);
    y.ToWords64(yw);
    kernel.Multiply(out.data(), xw.data(), yw.data(), scratch.data());
    EXPECT_EQ(BigUInt::FromWords64(out), want);

    std::fill(scratch.begin(), scratch.end(), ~MontKernel::Limb{0});
    kernel.Multiply(xw.data(), xw.data(), yw.data(), scratch.data());
    EXPECT_EQ(BigUInt::FromWords64(xw), want) << "out aliasing x";
    x.ToWords64(xw);
    kernel.Multiply(yw.data(), xw.data(), yw.data(), scratch.data());
    EXPECT_EQ(BigUInt::FromWords64(yw), want) << "out aliasing y";
  }
}

TEST(MontKernel, LimbMultiplyDoesNotAllocate) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(1024);
  for (const auto window : {MontKernel::Window::kTwoN, MontKernel::Window::kN}) {
    const MontKernel kernel(n, 1024 + 2, window);
    std::vector<MontKernel::Limb> a(kernel.Limbs()), b(kernel.Limbs());
    std::vector<MontKernel::Limb> scratch(kernel.ScratchLimbs());
    rng.Below(n).ToWords64(a);
    rng.Below(n).ToWords64(b);
    const std::size_t before = g_heap_allocations.load();
    for (int i = 0; i < 64; ++i) {
      kernel.Multiply(a.data(), a.data(), b.data(), scratch.data());
    }
    EXPECT_EQ(g_heap_allocations.load(), before);
  }
}

TEST(KernelEngines, OracleEngineIsNeverTheServiceDefault) {
  EXPECT_EQ(core::ExpService::Options{}.engine_name, "bit-serial");
  // It pairs exactly like bit-serial, so swapping it in for a test keeps
  // the scheduling and the 3l+4 / 3l+5 accounting.
  EXPECT_TRUE(core::EngineRegistry::Global().Find("alg2-ref")
                  ->caps.pairable_streams);
}

}  // namespace
}  // namespace mont
