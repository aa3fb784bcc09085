// mont_kernel.hpp — one exact word-level Montgomery multiply over 64-bit
// limbs, the arithmetic under the software engines.
//
// MontKernel computes the REDC product
//
//     T = (x*y + m*N) / 2^r,   m = -x*y*N^-1 mod 2^r,
//
// for an odd modulus N and a per-modulus exponent r.  m is the unique
// value below 2^r that makes the division exact, so T does not depend on
// how the reduction is split up: floor(r/64) full 64-bit REDC word steps,
// one partial step whose m is masked to the remaining r mod 64 bits, and
// a shift by r.  Two choices of r serve the software engines:
//
//   * r = l+2, window [0, 2N) — the paper's Algorithm 2 (R = 2^(l+2),
//     Walter's bound 4N < R).  Its bit loop consumes all l+2 bits of
//     x < 2N < 2^(l+1) and adds N at exactly the bit positions of that
//     same m, so T is bit-for-bit the representative the loop returns.
//   * r = 32*s (s = 32-bit limb count of N), window [0, N) — the
//     word-level CIOS parameter; T < 2N, and one masked subtraction gives
//     the canonical CIOS output.
//
// Multiply has fixed trip counts and no branch on operand values (the
// carry chain always runs its full length), and the caller owns every
// buffer: operands, result and a ScratchLimbs()-word scratch area are
// size-explicit limb arrays, so a multiply allocates nothing.  The
// constants (-N^-1 mod 2^64, limb counts, r) are computed once per
// modulus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bignum/biguint.hpp"

namespace mont::bignum {

class MontKernel {
 public:
  using Limb = std::uint64_t;

  /// The chainable window the kernel keeps its results in.
  enum class Window : std::uint8_t {
    kTwoN,  ///< [0, 2N): no final subtraction (Algorithm 2).
    kN,     ///< [0, N): one masked final subtraction (CIOS).
  };

  /// Constants for an odd modulus > 1 and R = 2^r_bits.  Throws
  /// std::invalid_argument for an even or trivial modulus, or when
  /// 2^r_bits < N.
  MontKernel(const BigUInt& modulus, std::size_t r_bits, Window window);

  /// Operand and result width in limbs: every value below 2N fits.
  std::size_t Limbs() const { return limbs_; }
  /// Words of scratch Multiply needs.
  std::size_t ScratchLimbs() const { return scratch_limbs_; }

  /// out = x*y*2^-r (mod N) in the kernel's window.  x, y and out hold
  /// Limbs() words each and out may alias x or y; scratch holds
  /// ScratchLimbs() words.  Exact for x*y < 2^r * N, which both windows'
  /// operand bounds guarantee (x, y < 2N with 2^r > 4N; x, y < N with
  /// 2^r > N).
  void Multiply(Limb* out, const Limb* x, const Limb* y, Limb* scratch) const;

  /// BigUInt form of Multiply through a per-thread scratch buffer that
  /// only ever grows, so steady-state calls allocate just the result.
  /// The caller enforces the operand window.  The conversions follow
  /// BigUInt's normalized (value-dependent) length; only the limb-level
  /// Multiply has operand-independent control flow.
  BigUInt Multiply(const BigUInt& x, const BigUInt& y) const;

 private:
  /// v <- v - N if v >= N, else v, selected by mask (no branch on v).
  void SubtractModulusIfAtLeast(Limb* v) const;

  std::vector<Limb> n_;  // modulus, Limbs() words (zero-padded)
  Limb n0_inv_ = 0;      // -N^-1 mod 2^64
  std::size_t n_limbs_ = 0;        // significant words of N
  std::size_t limbs_ = 0;          // operand/result width
  std::size_t scratch_limbs_ = 0;  // product + reduction carries
  std::size_t full_steps_ = 0;     // floor(r / 64)
  unsigned partial_bits_ = 0;      // r mod 64
  Window window_ = Window::kTwoN;
};

}  // namespace mont::bignum
