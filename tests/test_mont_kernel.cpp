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
//   * the limb API: aliasing, dirty scratch, and no heap allocation;
//   * the dual-channel IFMA lanes (bignum/mont_lanes.hpp): each lane, with
//     its own modulus, against the kernel and the Algorithm-2 bit loop, and
//     PairedModExp on "bit-serial" (the lane path) against "alg2-ref" (the
//     BigUInt path) in values and all three EngineStats.  On a CPU without
//     avx512ifma/avx512vl the lane cases skip; the scalar path keeps its
//     own cases above.
//
// Moduli straddle the 32/64-bit limb boundaries (l = 63/64/65, 127/128/129,
// 1023/1024/1025) and include all-ones moduli and moduli whose top limb
// is 1; operands include 0, 1, N-1, N, 2N-1 and all-ones words.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bignum/mont_kernel.hpp"
#include "bignum/mont_lanes.hpp"
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
using bignum::MontLanes;
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

/// Test-name suffix "l<bits>" (appended, not operator+: GCC 12 reports a
/// false -Wrestrict on "literal" + std::string&&).
std::string LengthName(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string name = "l";
  name += std::to_string(info.param);
  return name;
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
                         LengthName);

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

// ---------------------------------------------------------------------------
// Dual-channel IFMA lanes
// ---------------------------------------------------------------------------

#define SKIP_WITHOUT_IFMA()                                              \
  if (!MontLanes::Supported()) {                                         \
    GTEST_SKIP() << "CPU lacks avx512ifma/avx512vl: no lane path here";  \
  }

// Small l, (l+2) mod 52 in {0, 1, 51} (l = 258, 259, 257, and 50, 51, 101
// for one-, two- and three-digit values), and RSA-CRT half lengths.
constexpr std::size_t kLaneLengths[] = {3,   50,  51,  52,  53,  64,  65,  101,
                                        256, 257, 258, 259, 512, 1024, 2048};

/// The two channels' moduli for one case: different odd moduli of length
/// l, one of them all-ones or 2^(l-1)+1 in turn.
std::pair<BigUInt, BigUInt> LaneModuli(std::size_t l, int which,
                                       bignum::RandomBigUInt& rng) {
  const auto moduli = ModuliOfLength(l, rng);
  BigUInt other = rng.OddExactBits(l);
  while (other == moduli[which % 3]) other = rng.OddExactBits(l);
  return which % 2 == 0 ? std::pair{moduli[which % 3], other}
                        : std::pair{other, moduli[which % 3]};
}

class LaneDifferential : public ::testing::TestWithParam<std::size_t> {};

// Every lane returns its own kernel's product, which is Algorithm 2's
// representative, over all pairs of edge operands on both lanes at once.
TEST_P(LaneDifferential, EachLaneMatchesKernelAndAlgorithm2) {
  SKIP_WITHOUT_IFMA();
  const std::size_t l = GetParam();
  auto rng = test::TestRng();
  for (int which = 0; which < 3; ++which) {
    const auto [n_a, n_b] = LaneModuli(l, which, rng);
    const std::array<MontKernel, 2> kernels = {
        MontKernel(n_a, l + 2, MontKernel::Window::kTwoN),
        MontKernel(n_b, l + 2, MontKernel::Window::kTwoN)};
    const std::array<BitSerialMontgomery, 2> oracles = {
        BitSerialMontgomery(n_a), BitSerialMontgomery(n_b)};
    const MontLanes lanes(kernels[0], kernels[1]);
    ASSERT_EQ(lanes.Digits(), (l + 2) / 52 + 1);
    const std::array<std::vector<BigUInt>, 2> ops = {
        Operands(n_a, n_a << 1, rng, 2), Operands(n_b, n_b << 1, rng, 2)};
    std::vector<MontLanes::Digit> x(lanes.OperandWords()),
        y(lanes.OperandWords()), out(lanes.OperandWords()),
        scratch(lanes.ScratchWords());
    // Lane 1 walks its operands in reverse, so the lanes never see the
    // same pair and each lane still covers every pair of its own list.
    const std::size_t k = std::max(ops[0].size(), ops[1].size());
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        const std::array<BigUInt, 2> xs = {ops[0][i % ops[0].size()],
                                           ops[1][(k - 1 - i) % ops[1].size()]};
        const std::array<BigUInt, 2> ys = {ops[0][j % ops[0].size()],
                                           ops[1][j % ops[1].size()]};
        for (std::size_t c = 0; c < 2; ++c) {
          lanes.Load(x.data(), c, xs[c]);
          lanes.Load(y.data(), c, ys[c]);
        }
        lanes.Multiply(out.data(), {x.data(), x.data()}, {y.data(), y.data()},
                       scratch.data());
        for (std::size_t c = 0; c < 2; ++c) {
          const BigUInt got = lanes.Get(out.data(), c);
          ASSERT_EQ(got, kernels[c].Multiply(xs[c], ys[c]))
              << "l=" << l << " lane " << c << " x=0x" << xs[c].ToHex()
              << " y=0x" << ys[c].ToHex();
          // The bit loop is the slow part; check it on a sparser grid at
          // the largest lengths.
          if (l <= 1024 || (i + j) % 4 == 0) {
            ASSERT_EQ(got, oracles[c].MultiplyAlg2(xs[c], ys[c]))
                << "l=" << l << " lane " << c;
          }
        }
      }
    }
  }
}

// Per-channel sources: each lane reads its operands from its own buffer,
// the result may overwrite a source, and the idle lanes stay zero.
TEST_P(LaneDifferential, PerChannelSourcesAndAliasing) {
  SKIP_WITHOUT_IFMA();
  const std::size_t l = GetParam();
  auto rng = test::TestRng();
  const auto [n_a, n_b] = LaneModuli(l, 0, rng);
  const MontKernel ka(n_a, l + 2, MontKernel::Window::kTwoN);
  const MontKernel kb(n_b, l + 2, MontKernel::Window::kTwoN);
  const MontLanes lanes(ka, kb);
  const std::size_t w = lanes.OperandWords();
  std::vector<MontLanes::Digit> p(w), q(w), r(w),
      scratch(lanes.ScratchWords(), ~MontLanes::Digit{0});
  const BigUInt pa = rng.Below(n_a << 1), qa = rng.Below(n_a << 1),
                ra = rng.Below(n_a << 1);
  const BigUInt pb = rng.Below(n_b << 1), qb = rng.Below(n_b << 1),
                rb = rng.Below(n_b << 1);
  lanes.Load(p.data(), 0, pa);
  lanes.Load(q.data(), 0, qa);
  lanes.Load(r.data(), 0, ra);
  lanes.Load(p.data(), 1, pb);
  lanes.Load(q.data(), 1, qb);
  lanes.Load(r.data(), 1, rb);
  // Lane 0 squares p; lane 1 multiplies q by r; the result lands in p.
  lanes.Multiply(p.data(), {p.data(), q.data()}, {p.data(), r.data()},
                 scratch.data());
  EXPECT_EQ(lanes.Get(p.data(), 0), ka.Multiply(pa, pa));
  EXPECT_EQ(lanes.Get(p.data(), 1), kb.Multiply(qb, rb));
  for (std::size_t j = 0; j < lanes.Digits(); ++j) {
    EXPECT_EQ(p[MontLanes::kLanes * j + 2], 0u);
    EXPECT_EQ(p[MontLanes::kLanes * j + 3], 0u);
  }
  lanes.CopyLane(q.data(), p.data(), 1);
  EXPECT_EQ(lanes.Get(q.data(), 1), kb.Multiply(qb, rb));
  EXPECT_EQ(lanes.Get(q.data(), 0), qa);
}

void ExpectSameStats(const core::EngineStats& got,
                     const core::EngineStats& want, const char* which) {
  EXPECT_EQ(got.squarings, want.squarings) << which;
  EXPECT_EQ(got.multiplications, want.multiplications) << which;
  EXPECT_EQ(got.mmm_invocations, want.mmm_invocations) << which;
  EXPECT_EQ(got.paired_issues, want.paired_issues) << which;
  EXPECT_EQ(got.single_issues, want.single_issues) << which;
  EXPECT_EQ(got.engine_cycles, want.engine_cycles) << which;
  EXPECT_EQ(got.paper_model_cycles, want.paper_model_cycles) << which;
  EXPECT_EQ(got.cancelled, want.cancelled) << which;
}

// PairedModExp on "bit-serial" engines takes the lane path; on "alg2-ref"
// engines (no kernel) it takes the BigUInt path through the bit loop.
// Values and the shared and per-job stats must agree, including leftover
// single issues when the exponents differ in length.
TEST_P(LaneDifferential, PairedModExpMatchesBigUIntPath) {
  SKIP_WITHOUT_IFMA();
  const std::size_t l = GetParam();
  // Full-length exponents up to l = 128, shorter ones above: the bit-loop
  // oracle's cost grows with l^2 per product, and the lane path's
  // bookkeeping does not depend on the exponent length.
  const std::size_t e_bits = l <= 128 ? l : std::max<std::size_t>(16, 32768 / l);
  auto rng = test::TestRng();
  const auto [n_a, n_b] = LaneModuli(l, 1, rng);
  const auto fast_a = core::MakeEngine("bit-serial", n_a);
  const auto fast_b = core::MakeEngine("bit-serial", n_b);
  const auto slow_a = core::MakeEngine("alg2-ref", n_a);
  const auto slow_b = core::MakeEngine("alg2-ref", n_b);
  ASSERT_NE(fast_a->Kernel(), nullptr);
  ASSERT_EQ(slow_a->Kernel(), nullptr);
  const std::vector<BigUInt> exponents = {
      BigUInt{}, BigUInt{1}, BigUInt{2}, AllOnes(e_bits),
      rng.ExactBits(e_bits), rng.ExactBits(std::max<std::size_t>(2, e_bits / 3))};
  const std::vector<BigUInt> bases_a = {BigUInt{}, BigUInt{1},
                                        n_a - BigUInt{1}, n_a,
                                        (n_a << 1) + BigUInt{5},
                                        rng.Below(n_a)};
  const std::vector<BigUInt> bases_b = {rng.Below(n_b), n_b + BigUInt{1},
                                        BigUInt{1}, n_b - BigUInt{1},
                                        BigUInt{}, AllOnes(l + 7)};
  for (std::size_t i = 0; i < exponents.size(); ++i) {
    for (std::size_t j = 0; j < exponents.size(); ++j) {
      const BigUInt& base_a = bases_a[(i + j) % bases_a.size()];
      const BigUInt& base_b = bases_b[i % bases_b.size()];
      const auto fast = core::PairedModExp(*fast_a, base_a, exponents[i],
                                           *fast_b, base_b, exponents[j]);
      const auto slow = core::PairedModExp(*slow_a, base_a, exponents[i],
                                           *slow_b, base_b, exponents[j]);
      SCOPED_TRACE(::testing::Message() << "l=" << l << " e_a=0x"
                                        << exponents[i].ToHex() << " e_b=0x"
                                        << exponents[j].ToHex());
      ASSERT_EQ(fast.a, BigUInt::ModExp(base_a, exponents[i], n_a));
      ASSERT_EQ(fast.b, BigUInt::ModExp(base_b, exponents[j], n_b));
      ASSERT_EQ(fast.a, slow.a);
      ASSERT_EQ(fast.b, slow.b);
      ExpectSameStats(fast.stats, slow.stats, "stats");
      ExpectSameStats(fast.stats_a, slow.stats_a, "stats_a");
      ExpectSameStats(fast.stats_b, slow.stats_b, "stats_b");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, LaneDifferential,
                         ::testing::ValuesIn(kLaneLengths),
                         LengthName);

TEST(MontLanes, AcceptsOnlyMatchingTwoNKernels) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(256), m = rng.OddExactBits(256);
  using W = MontKernel::Window;
  const MontKernel a(n, 258, W::kTwoN), b(m, 258, W::kTwoN);
  EXPECT_TRUE(MontLanes::Accepts(a, b));
  EXPECT_FALSE(MontLanes::Accepts(a, MontKernel(m, 259, W::kTwoN)));
  EXPECT_FALSE(MontLanes::Accepts(a, MontKernel(m, 258, W::kN)));
  EXPECT_THROW(MontLanes(a, MontKernel(m, 259, W::kTwoN)),
               std::invalid_argument);
  const std::size_t top = MontLanes::kMaxBits;
  const BigUInt big = rng.OddExactBits(top), bigger = rng.OddExactBits(top + 1);
  EXPECT_TRUE(MontLanes::Accepts(MontKernel(big, top + 2, W::kTwoN),
                                 MontKernel(big, top + 2, W::kTwoN)));
  EXPECT_FALSE(MontLanes::Accepts(MontKernel(bigger, top + 3, W::kTwoN),
                                  MontKernel(bigger, top + 3, W::kTwoN)));
}

TEST(MontLanes, MultiplyDoesNotAllocate) {
  SKIP_WITHOUT_IFMA();
  auto rng = test::TestRng();
  const BigUInt n_a = rng.OddExactBits(1024), n_b = rng.OddExactBits(1024);
  const MontKernel ka(n_a, 1026, MontKernel::Window::kTwoN);
  const MontKernel kb(n_b, 1026, MontKernel::Window::kTwoN);
  const MontLanes lanes(ka, kb);
  std::vector<MontLanes::Digit> a(lanes.OperandWords()),
      b(lanes.OperandWords()), scratch(lanes.ScratchWords());
  lanes.Load(a.data(), 0, rng.Below(n_a));
  lanes.Load(a.data(), 1, rng.Below(n_b));
  lanes.Load(b.data(), 0, rng.Below(n_a));
  lanes.Load(b.data(), 1, rng.Below(n_b));
  const std::size_t before = g_heap_allocations.load();
  for (int i = 0; i < 64; ++i) {
    lanes.Multiply(a.data(), {a.data(), a.data()}, {b.data(), b.data()},
                   scratch.data());
    lanes.Multiply(a.data(), {a.data(), b.data()}, {b.data(), a.data()},
                   scratch.data());
  }
  EXPECT_EQ(g_heap_allocations.load(), before);
}

}  // namespace
}  // namespace mont
