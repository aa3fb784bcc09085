// mont_lanes.hpp — the paper's two channels in SIMD lanes: two independent
// Montgomery products per call, one per 64-bit lane of a 256-bit AVX-512
// IFMA vector, each bit-identical to MontKernel (and so to Algorithm 2).
//
// The array of the paper runs two independent products through one
// datapath (3l+5 cycles per pair against 6l+8 for two solo products);
// MontLanes is the software counterpart.  Channel c (c = 0, 1) multiplies
// modulo its own N_c; both moduli share one bit length and one r.
//
// Representation.  A value is D = floor(r/52) + 1 digits of 52 bits; an
// interleaved operand stores digit j of lane k at word 4*j + k, so one
// 256-bit load fetches digit j of every lane.  Lanes 0 and 1 carry the two
// channels; lanes 2 and 3 are idle (their modulus is 0).  256-bit vectors
// keep the code off the zmm frequency licence, and two live lanes is all
// a pair needs.
//
// Algorithm (vertical radix-2^52 Montgomery, Gueron & Krasnov, "Accelerating
// Big Integer Arithmetic Using Intel IFMA Extensions", ARITH 2016).  Step s
// adds x_s*Y with vpmadd52lo/hi, picks m_s so that digit s of the running
// sum clears, adds m_s*N the same way, and carries digit s into digit s+1.
// The reduction splits r exactly as MontKernel splits it:
//
//   * floor(r/52) full steps, m_s = T_s * (-N^-1) mod 2^52;
//   * one partial step whose m is masked to the remaining r mod 52 bits
//     (a zero mask when 52 divides r);
//   * a carry normalisation and a right shift by r mod 52.
//
// The m's compose to M = sum m_s 2^(52s) < 2^r with x*y + M*N = 0 (mod
// 2^r).  That M is unique, so the result (x*y + M*N) / 2^r is exactly
// MontKernel's REDC product: for R = 2^(l+2) it is the representative
// MultiplyAlg2 returns, below 2N.  Every operand is below 2N < 2^(l+1) =
// 2^(r-1), so the top digit x_F (F = floor(r/52)) is below 2^(r mod 52)
// and the partial step consumes the last of x.
//
// Lazy accumulators.  Accumulator digits are 64-bit words that collect
// unnormalised 52-bit halves.  Digit k receives at most four halves (lo
// and hi of x_s*y, lo and hi of m_s*N), each below 2^52, from each of the
// D steps whose window covers it, plus two carries below 2^12.  So it
// stays below 4*D*2^52 + 2^13, which is below 2^64 for D <= 1023.  The
// largest supported l, kMaxBits = 2077, has D = kMaxDigits = 40: the
// accumulators never reach 2^60.  Each D up to kMaxDigits gets its own
// instantiation, which keeps the accumulator in registers.
//
// Multiply has fixed trip counts and no branch on operand values, and
// allocates nothing: the caller owns operands, result and scratch (the
// MontKernel contract).  The intrinsics sit under function-level target
// attributes, so the build needs no -m flags; Supported() tells a caller
// whether this CPU can run them, and constructing a MontLanes on a CPU
// without avx512ifma + avx512vl throws.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/mont_kernel.hpp"

namespace mont::bignum {

class MontLanes {
 public:
  using Digit = std::uint64_t;
  static constexpr unsigned kDigitBits = 52;
  /// 64-bit lanes per 256-bit vector, and the live ones among them.
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kChannels = 2;
  /// Largest digit count, and so the largest modulus bit length: an
  /// R = 2^(l+2) kernel needs floor((l+2)/52) + 1 <= kMaxDigits digits.
  static constexpr std::size_t kMaxDigits = 40;
  static constexpr std::size_t kMaxBits = kDigitBits * kMaxDigits - 3;

  /// Per-channel operand sources: channel c reads lane c of ptrs[c].
  using Sources = std::array<const Digit*, kChannels>;

  /// True when the CPU runs avx512ifma and avx512vl (checked once).
  static bool Supported();

  /// True when two kernels can share the lanes: both keep the [0, 2N)
  /// window with the same r, and the modulus has at most kMaxBits bits.
  static bool Accepts(const MontKernel& a, const MontKernel& b);

  /// Lanes over channel 0 = a's modulus and channel 1 = b's.  Throws
  /// std::invalid_argument unless Accepts(a, b), and std::runtime_error
  /// on a CPU that is not Supported().
  MontLanes(const MontKernel& a, const MontKernel& b);

  /// Digits per value, and words per interleaved operand (kLanes * D).
  std::size_t Digits() const { return digits_; }
  std::size_t OperandWords() const { return kLanes * digits_; }
  /// Words of scratch Multiply needs: room to merge both operands.
  std::size_t ScratchWords() const { return 2 * OperandWords(); }

  /// Writes v (below 2^(52D)) as digits into lane `lane` of `operand`.
  void Load(Digit* operand, std::size_t lane, const BigUInt& v) const;
  /// Reads lane `lane` of `operand` back as a BigUInt.
  BigUInt Get(const Digit* operand, std::size_t lane) const;
  /// Copies lane `lane` of `src` into the same lane of `dst`.
  void CopyLane(Digit* dst, const Digit* src, std::size_t lane) const;

  /// Lane c of `out` becomes MontKernel c's Multiply of lane c of x[c] and
  /// lane c of y[c], for both channels at once.  Operands must be below
  /// 2N_c.  `out` may alias any source; scratch holds ScratchWords().
  void Multiply(Digit* out, const Sources& x, const Sources& y,
                Digit* scratch) const;

 private:
  std::vector<Digit> n_;                 // interleaved moduli, D vectors
  std::array<Digit, kLanes> n0_inv_{};   // -N_c^-1 mod 2^52 per lane
  std::size_t digits_ = 0;               // D = floor(r / 52) + 1
  unsigned partial_bits_ = 0;            // r mod 52
};

}  // namespace mont::bignum
