#include "crypto/prime.hpp"

#include <array>
#include <stdexcept>

#include "core/engine.hpp"

namespace mont::crypto {

using bignum::BigUInt;

namespace {

// Primes below 1000, used for trial-division sieving.
constexpr std::array<std::uint32_t, 168> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

bool MillerRabinWitness(const BigUInt& n, const BigUInt& n_minus_1,
                        const BigUInt& odd_part, std::size_t twos,
                        const core::MmmEngine& engine, const BigUInt& base) {
  BigUInt x = engine.ModExp(base, odd_part);
  if (x.IsOne() || x == n_minus_1) return false;
  for (std::size_t i = 1; i < twos; ++i) {
    x = (x * x) % n;
    if (x == n_minus_1) return false;
    if (x.IsOne()) return true;  // nontrivial square root of 1 found
  }
  return true;  // composite witnessed
}

}  // namespace

bool IsProbablePrime(const BigUInt& candidate, bignum::RandomBigUInt& rng,
                     int rounds) {
  if (candidate < BigUInt{2}) return false;
  for (const std::uint32_t p : kSmallPrimes) {
    const BigUInt prime{p};
    if (candidate == prime) return true;
    if ((candidate % prime).IsZero()) return false;
  }
  // candidate is odd and > 1000 here.
  const BigUInt n_minus_1 = candidate - BigUInt{1};
  BigUInt odd_part = n_minus_1;
  std::size_t twos = 0;
  while (!odd_part.IsOdd()) {
    odd_part >>= 1;
    ++twos;
  }
  const auto engine = core::MakeEngine("word-mont", candidate);
  const BigUInt two{2}, three{3};
  for (const BigUInt* base : {&two, &three}) {
    if (MillerRabinWitness(candidate, n_minus_1, odd_part, twos, *engine,
                           *base)) {
      return false;
    }
  }
  for (int round = 0; round < rounds; ++round) {
    const BigUInt base =
        rng.Below(candidate - BigUInt{3}) + BigUInt{2};  // in [2, n-2]
    if (MillerRabinWitness(candidate, n_minus_1, odd_part, twos, *engine,
                           base)) {
      return false;
    }
  }
  return true;
}

BigUInt GeneratePrime(std::size_t bits, bignum::RandomBigUInt& rng,
                      int rounds) {
  if (bits < 2) throw std::invalid_argument("GeneratePrime: bits must be >= 2");
  for (;;) {
    BigUInt candidate = rng.OddExactBits(bits);
    if (bits >= 2) candidate.SetBit(bits - 2, true);  // force top two bits
    bool sieved = false;
    for (const std::uint32_t p : kSmallPrimes) {
      const BigUInt prime{p};
      if (candidate != prime && (candidate % prime).IsZero()) {
        sieved = true;
        break;
      }
    }
    if (sieved) continue;
    if (IsProbablePrime(candidate, rng, rounds)) return candidate;
  }
}

}  // namespace mont::crypto
