// exp_algorithms.hpp — the design space around the paper's Algorithm 3.
//
// The paper uses left-to-right binary square-and-multiply.  This module
// implements the standard alternatives on top of the same chainable
// Algorithm-2 multiplier so their MMM counts (and hence latency on the
// MMMC) and side-channel profiles can be compared:
//
//   * kLeftToRight  — the paper's Algorithm 3.
//   * kRightToLeft  — scans the exponent LSB-first; same multiplication
//                     count, but the square chain is data-independent.
//   * kSlidingWindow — w-bit windows over precomputed odd powers; fewer
//                     multiplications for long exponents.
//   * kMontgomeryLadder — one square and one multiply per bit regardless
//                     of the bit value; the constant operation sequence
//                     defeats simple power analysis (§5 of the paper notes
//                     data-dependent steps are presumed SCA-vulnerable).
//
// Every algorithm records the sequence of MMM operations it issued so the
// sca module can mount (and the benches can quantify) SPA-style attacks.
#pragma once

#include <cstdint>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"

namespace mont::core {

enum class ExpAlgorithm {
  kLeftToRight,
  kRightToLeft,
  kSlidingWindow,
  kMontgomeryLadder,
};

const char* ExpAlgorithmName(ExpAlgorithm algorithm);

/// One MMM issued by an exponentiation, as an SPA observer would see it.
enum class MmmOp : std::uint8_t {
  kSquare,    // operands identical
  kMultiply,  // operands differ
};

/// Operation statistics plus the full issue trace.
struct ExpTrace {
  std::uint64_t squarings = 0;
  std::uint64_t multiplications = 0;
  std::uint64_t precompute_mmms = 0;  // table building + domain entry/exit
  std::vector<MmmOp> operations;      // main-loop issue order only

  std::uint64_t TotalMmms() const {
    return squarings + multiplications + precompute_mmms;
  }
  /// Latency on the MMMC at 3l+4 cycles per operation.
  std::uint64_t ModeledCycles(std::size_t l) const {
    return TotalMmms() * (3 * static_cast<std::uint64_t>(l) + 4);
  }
};

/// Modular exponentiation engine offering all four algorithms over one
/// modulus.  All values move through the paper's Algorithm 2 (its exact
/// output, via BitSerialMontgomery::Multiply); results are canonical (< N).
class MultiExponentiator {
 public:
  explicit MultiExponentiator(bignum::BigUInt modulus);

  std::size_t l() const { return ctx_.l(); }
  const bignum::BigUInt& Modulus() const { return ctx_.Modulus(); }

  /// base^exponent mod N.  `window_bits` applies to kSlidingWindow only
  /// (2..8).  `trace`, when non-null, receives the operation record.
  bignum::BigUInt ModExp(const bignum::BigUInt& base,
                         const bignum::BigUInt& exponent,
                         ExpAlgorithm algorithm, int window_bits = 4,
                         ExpTrace* trace = nullptr) const;

 private:
  bignum::BigUInt LeftToRight(const bignum::BigUInt& m_mont,
                              const bignum::BigUInt& e, ExpTrace* t) const;
  bignum::BigUInt RightToLeft(const bignum::BigUInt& m_mont,
                              const bignum::BigUInt& e, ExpTrace* t) const;
  bignum::BigUInt SlidingWindow(const bignum::BigUInt& m_mont,
                                const bignum::BigUInt& e, int w,
                                ExpTrace* t) const;
  bignum::BigUInt Ladder(const bignum::BigUInt& m_mont,
                         const bignum::BigUInt& e, ExpTrace* t) const;

  bignum::BitSerialMontgomery ctx_;
};

/// The SPA "attack" on a recorded operation sequence: reconstructs the
/// exponent bits that a left-to-right binary trace leaks (a multiply after
/// a square reveals a 1-bit; a square followed by another square reveals a
/// 0-bit).  Returns the recovered bits, MSB first (excluding the implicit
/// leading 1).  For a ladder trace the recovery yields no information —
/// every bit position looks identical.
std::vector<bool> RecoverExponentFromTrace(const std::vector<MmmOp>& trace);

}  // namespace mont::core
