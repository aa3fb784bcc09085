// montgomery.hpp — software reference implementations of Montgomery modular
// multiplication, exactly as specified in the paper.
//
// Two layers are provided:
//
//  * BitSerialMontgomery — radix-2 references for the paper's Algorithm 1
//    (with final subtraction, R = 2^l) and Algorithm 2 (without final
//    subtraction, R = 2^(l+2), Walter's bound 4N < R).  The Algorithm-2
//    bit loop is the golden model (the oracle) the cycle-accurate systolic
//    hardware in src/core is checked against; Multiply returns the same
//    representative through the word-level kernel (bignum/mont_kernel.hpp)
//    and carries the paper's pre-/post-processing flow for modular
//    exponentiation (§4.5).
//
//  * WordMontgomery — word-level (2^32 radix) CIOS / SOS / FIPS variants as
//    classified by Koç, Acar & Kaliski.  These serve as software baselines in
//    bench_software and as the fast arithmetic behind the crypto layer.
#pragma once

#include <cstdint>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/mont_kernel.hpp"

namespace mont::bignum {

/// Radix-2 Montgomery multiplication contexts for an odd modulus N.
///
/// Terminology follows the paper: l is the bit length of N (N < 2^l), the
/// Montgomery parameter of Algorithm 2 is R = 2^(l+2) which satisfies
/// Walter's optimal bound 4N < R, so that inputs x, y < 2N produce an output
/// T < 2N with no final subtraction.
class BitSerialMontgomery {
 public:
  /// Requires an odd modulus > 1; throws std::invalid_argument otherwise.
  explicit BitSerialMontgomery(BigUInt modulus);

  const BigUInt& Modulus() const { return modulus_; }
  /// Bit length l of the modulus.
  std::size_t l() const { return l_; }
  /// Algorithm 2's Montgomery parameter R = 2^(l+2).
  const BigUInt& R() const { return r_; }
  /// R^2 mod N, the pre-computation constant for domain entry.
  const BigUInt& RSquaredModN() const { return r2_; }

  /// Algorithm 1 (paper): l iterations, R1 = 2^l, inputs in [0, N),
  /// output x*y*2^-l mod N, fully reduced below N by the final subtraction.
  BigUInt MultiplyAlg1(const BigUInt& x, const BigUInt& y) const;

  /// Algorithm 2 (paper): l+2 iterations, R = 2^(l+2), inputs in [0, 2N),
  /// output congruent to x*y*R^-1 (mod N) and guaranteed < 2N.  The bit
  /// loop itself — the oracle that Multiply and the hardware models are
  /// tested against.  Throws std::invalid_argument if an input is >= 2N.
  BigUInt MultiplyAlg2(const BigUInt& x, const BigUInt& y) const;

  /// Algorithm 2's exact output, computed as a word-level REDC with
  /// R = 2^(l+2) (MontKernel).  Bit-identical to MultiplyAlg2, including
  /// the < 2N operand check.
  BigUInt Multiply(const BigUInt& x, const BigUInt& y) const;

  /// The word-level kernel behind Multiply (R = 2^(l+2), window [0, 2N)).
  const MontKernel& Kernel() const { return kernel_; }

  /// Montgomery-domain entry: Mont(x, R^2 mod N) = x*R mod 2N.
  BigUInt ToMont(const BigUInt& x) const { return Multiply(x, r2_); }
  /// Montgomery-domain exit: Mont(x, 1) = x*R^-1 mod 2N; per the paper this
  /// final step is bounded by N (reduced below N here for API convenience).
  BigUInt FromMont(const BigUInt& x) const;

  /// Modular exponentiation per the paper's §4.5 flow: pre-multiply by
  /// R^2 mod N, left-to-right square-and-multiply over Multiply, then a
  /// final Mont(·, 1).  Returns base^exponent mod N.
  BigUInt ModExp(const BigUInt& base, const BigUInt& exponent) const;

 private:
  BigUInt modulus_;
  BigUInt modulus_times_two_;
  std::size_t l_ = 0;
  BigUInt r_;
  BigUInt r2_;
  MontKernel kernel_;
};

/// Word-level Montgomery multiplication (radix 2^32) for an odd modulus.
/// Values are kept in [0, N); R = 2^(32*s) where s is the limb count of N.
class WordMontgomery {
 public:
  enum class Variant {
    kCios,  ///< Coarsely Integrated Operand Scanning (default).
    kSos,   ///< Separated Operand Scanning.
    kFips,  ///< Finely Integrated Product Scanning.
  };

  /// Requires an odd modulus > 1; throws std::invalid_argument otherwise.
  explicit WordMontgomery(BigUInt modulus);

  const BigUInt& Modulus() const { return modulus_; }
  std::size_t LimbCount() const { return n_.size(); }
  /// R mod N (the Montgomery representation of 1).
  const BigUInt& OneMont() const { return one_mont_; }
  /// R^2 mod N, the domain-entry factor: ToMont(x) == Multiply(x, R^2).
  const BigUInt& RSquaredModN() const { return r2_mod_n_; }

  /// Montgomery product x*y*R^-1 mod N for x, y in [0, N).
  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   Variant variant = Variant::kCios) const;

  BigUInt ToMont(const BigUInt& x) const;
  BigUInt FromMont(const BigUInt& x) const;

  /// base^exponent mod N via left-to-right square-and-multiply in the
  /// Montgomery domain with the chosen multiplication variant.
  BigUInt ModExp(const BigUInt& base, const BigUInt& exponent,
                 Variant variant = Variant::kCios) const;

 private:
  using Limb = BigUInt::Limb;

  std::vector<Limb> MultiplyCios(std::span<const Limb> a,
                                 std::span<const Limb> b) const;
  std::vector<Limb> MultiplySos(std::span<const Limb> a,
                                std::span<const Limb> b) const;
  std::vector<Limb> MultiplyFips(std::span<const Limb> a,
                                 std::span<const Limb> b) const;
  std::vector<Limb> PadToLimbs(const BigUInt& v) const;
  static void ConditionalSubtract(std::vector<Limb>& value,
                                  std::span<const Limb> modulus);

  BigUInt modulus_;
  std::vector<Limb> n_;     // modulus limbs, padded form
  Limb n_prime_0_ = 0;      // -N^-1 mod 2^32
  BigUInt r_mod_n_;
  BigUInt r2_mod_n_;
  BigUInt one_mont_;
};

}  // namespace mont::bignum
