#include "bignum/mont_lanes.hpp"

#include <stdexcept>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#define MONT_LANES_X86 1
#endif

namespace mont::bignum {

namespace {

using Digit = MontLanes::Digit;
using Wide = unsigned __int128;

constexpr Digit kDigitMask = (Digit{1} << MontLanes::kDigitBits) - 1;
constexpr std::size_t kLanes = MontLanes::kLanes;

/// Bits [pos, pos + 52) of v.
Digit DigitAt(const BigUInt& v, std::size_t pos) {
  const std::size_t q = pos / BigUInt::kLimbBits;
  const Wide w = static_cast<Wide>(v.LimbAt(q)) |
                 static_cast<Wide>(v.LimbAt(q + 1)) << 32 |
                 static_cast<Wide>(v.LimbAt(q + 2)) << 64;
  return static_cast<Digit>(w >> (pos % BigUInt::kLimbBits)) & kDigitMask;
}

#if MONT_LANES_X86

#define MONT_LANES_TARGET __attribute__((target("avx512ifma,avx512vl")))

MONT_LANES_TARGET inline __m256i LoadVec(const Digit* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

MONT_LANES_TARGET inline void StoreVec(Digit* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// dst = lane 1 of b over lanes 0, 2, 3 of a (a == b copies a), for the
/// `digits` vectors of an operand.
MONT_LANES_TARGET void MergeChannels(Digit* dst, const Digit* a,
                                     const Digit* b, std::size_t digits) {
  for (std::size_t j = 0; j < digits; ++j) {
    // 32-bit elements 2 and 3 are 64-bit lane 1.
    StoreVec(dst + kLanes * j, _mm256_blend_epi32(LoadVec(a + kLanes * j),
                                                  LoadVec(b + kLanes * j),
                                                  0x0c));
  }
}

/// One step on the accumulator acc[0..D] (digit s+j of the running sum in
/// acc[j]): adds x_s*Y and m*N, the lo half of column j on acc[j] and the
/// hi half on acc[j+1], with m chosen to clear the bits of acc[0] that
/// m_mask selects.  The x_s*Y halves go in first, so they overlap the
/// latency of m, which only the m*N halves wait for.
template <std::size_t D>
MONT_LANES_TARGET __attribute__((always_inline)) inline void Step(
    __m256i (&acc)[D + 1], __m256i xs, const Digit* y, const Digit* n,
    __m256i k0, __m256i m_mask) {
  const __m256i t = _mm256_madd52lo_epu64(acc[0], xs, LoadVec(y));
  const __m256i m = _mm256_and_si256(
      _mm256_madd52lo_epu64(_mm256_setzero_si256(), t, k0), m_mask);
#pragma GCC unroll 64
  for (std::size_t j = 1; j < D; ++j) {
    acc[j] = _mm256_madd52lo_epu64(acc[j], xs, LoadVec(y + kLanes * j));
  }
#pragma GCC unroll 64
  for (std::size_t j = 0; j < D; ++j) {
    acc[j + 1] = _mm256_madd52hi_epu64(acc[j + 1], xs, LoadVec(y + kLanes * j));
  }
  acc[0] = _mm256_madd52lo_epu64(t, m, LoadVec(n));
#pragma GCC unroll 64
  for (std::size_t j = 1; j < D; ++j) {
    acc[j] = _mm256_madd52lo_epu64(acc[j], m, LoadVec(n + kLanes * j));
  }
#pragma GCC unroll 64
  for (std::size_t j = 0; j < D; ++j) {
    acc[j + 1] = _mm256_madd52hi_epu64(acc[j + 1], m, LoadVec(n + kLanes * j));
  }
}

/// The lane product for D digits; see mont_lanes.hpp for the algorithm
/// and bounds.  Each D gets its own instantiation, so the accumulator
/// lives in registers; the full steps shift it down one digit.
template <std::size_t D>
MONT_LANES_TARGET void LaneMultiply(Digit* out, const Digit* x, const Digit* y,
                                    const Digit* n, const Digit* n0_inv,
                                    unsigned partial_bits) {
  const __m256i k0 = LoadVec(n0_inv);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i digit_mask =
      _mm256_set1_epi64x(static_cast<long long>(kDigitMask));
  __m256i acc[D + 1];
#pragma GCC unroll 64
  for (std::size_t j = 0; j <= D; ++j) acc[j] = zero;

  for (std::size_t s = 0; s + 1 < D; ++s) {
    Step<D>(acc, LoadVec(x + kLanes * s), y, n, k0, digit_mask);
    // Digit s is now zero below bit 52; its carry joins digit s+1.
    const __m256i carry = _mm256_srli_epi64(acc[0], 52);
#pragma GCC unroll 64
    for (std::size_t j = 0; j < D; ++j) acc[j] = acc[j + 1];
    acc[D] = _mm256_setzero_si256();
    acc[0] = _mm256_add_epi64(acc[0], carry);
  }
  Step<D>(acc, LoadVec(x + kLanes * (D - 1)), y, n, k0,
          _mm256_set1_epi64x(
              static_cast<long long>((Digit{1} << partial_bits) - 1)));

  // Normalise the D+1 digits to 52 bits, then shift the value right by
  // partial_bits (when that is 0, the left shift by 52 leaves nothing
  // under the mask).
  __m256i carry = zero;
#pragma GCC unroll 64
  for (std::size_t j = 0; j <= D; ++j) {
    const __m256i v = _mm256_add_epi64(acc[j], carry);
    carry = _mm256_srli_epi64(v, 52);
    acc[j] = _mm256_and_si256(v, digit_mask);
  }
  const __m128i right = _mm_cvtsi32_si128(static_cast<int>(partial_bits));
  const __m128i left = _mm_cvtsi32_si128(static_cast<int>(52 - partial_bits));
#pragma GCC unroll 64
  for (std::size_t j = 0; j < D; ++j) {
    const __m256i up = _mm256_sll_epi64(acc[j + 1], left);
    StoreVec(out + kLanes * j,
             _mm256_or_si256(_mm256_srl_epi64(acc[j], right),
                             _mm256_and_si256(up, digit_mask)));
  }
}

using LaneFn = void (*)(Digit*, const Digit*, const Digit*, const Digit*,
                        const Digit*, unsigned);

/// LaneMultiply<D> for D = 1 .. kMaxDigits.
template <std::size_t... I>
constexpr std::array<LaneFn, sizeof...(I)> LaneTable(
    std::index_sequence<I...>) {
  return {&LaneMultiply<I + 1>...};
}
constexpr auto kLaneTable =
    LaneTable(std::make_index_sequence<MontLanes::kMaxDigits>{});

#endif  // MONT_LANES_X86

}  // namespace

bool MontLanes::Supported() {
#if MONT_LANES_X86
  static const bool supported = __builtin_cpu_supports("avx512ifma") &&
                                __builtin_cpu_supports("avx512vl");
  return supported;
#else
  return false;
#endif
}

bool MontLanes::Accepts(const MontKernel& a, const MontKernel& b) {
  return a.window() == MontKernel::Window::kTwoN &&
         b.window() == MontKernel::Window::kTwoN && a.RBits() == b.RBits() &&
         a.Limbs() == b.Limbs() && a.RBits() / kDigitBits < kMaxDigits;
}

MontLanes::MontLanes(const MontKernel& a, const MontKernel& b) {
  if (!Accepts(a, b)) {
    throw std::invalid_argument(
        "MontLanes: kernels need the [0, 2N) window, one r and <= kMaxBits");
  }
  if (!Supported()) {
    throw std::runtime_error("MontLanes: CPU lacks avx512ifma/avx512vl");
  }
  const std::size_t r = a.RBits();
  digits_ = r / kDigitBits + 1;
  partial_bits_ = static_cast<unsigned>(r % kDigitBits);
  n_.assign(OperandWords(), 0);
  const MontKernel* kernels[kChannels] = {&a, &b};
  for (std::size_t c = 0; c < kChannels; ++c) {
    Load(n_.data(), c, BigUInt::FromWords64(kernels[c]->ModulusLimbs()));
    n0_inv_[c] = kernels[c]->NegInverse() & kDigitMask;
  }
}

void MontLanes::Load(Digit* operand, std::size_t lane, const BigUInt& v) const {
  for (std::size_t j = 0; j < digits_; ++j) {
    operand[kLanes * j + lane] = DigitAt(v, kDigitBits * j);
  }
}

BigUInt MontLanes::Get(const Digit* operand, std::size_t lane) const {
  std::vector<std::uint64_t> words((kDigitBits * digits_ + 63) / 64, 0);
  for (std::size_t j = 0; j < digits_; ++j) {
    const Digit v = operand[kLanes * j + lane];
    const std::size_t pos = kDigitBits * j;
    const std::size_t q = pos / 64, s = pos % 64;
    words[q] |= v << s;
    if (s > 64 - kDigitBits && q + 1 < words.size()) {
      words[q + 1] |= v >> (64 - s);
    }
  }
  return BigUInt::FromWords64(words);
}

void MontLanes::CopyLane(Digit* dst, const Digit* src,
                         std::size_t lane) const {
  for (std::size_t j = 0; j < digits_; ++j) {
    dst[kLanes * j + lane] = src[kLanes * j + lane];
  }
}

void MontLanes::Multiply(Digit* out, const Sources& x, const Sources& y,
                         Digit* scratch) const {
#if MONT_LANES_X86
  const Digit* xs = x[0];
  const Digit* ys = y[0];
  if (x[0] != x[1]) {
    MergeChannels(scratch, x[0], x[1], digits_);
    xs = scratch;
  }
  if (y[0] != y[1]) {
    MergeChannels(scratch + OperandWords(), y[0], y[1], digits_);
    ys = scratch + OperandWords();
  }
  kLaneTable[digits_ - 1](out, xs, ys, n_.data(), n0_inv_.data(),
                          partial_bits_);
#else
  (void)out, (void)x, (void)y, (void)scratch;
#endif
}

}  // namespace mont::bignum
