// biguint.hpp — arbitrary-precision unsigned integer arithmetic.
//
// This is the software substrate of the reproduction: every hardware model in
// src/core is validated against the reference arithmetic implemented here.
// No external bignum library (GMP, OpenSSL) is used; everything is built from
// 32-bit limbs with 64-bit intermediates so the code is portable and easy to
// audit.
//
// Representation: little-endian vector of uint32_t limbs, always normalized
// (no trailing zero limbs; the value zero is the empty vector).
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mont::bignum {

/// Arbitrary-precision unsigned integer.
///
/// Supports the operations required by the Montgomery-multiplier
/// reproduction: ring arithmetic, shifts, bit access, division with
/// remainder (Knuth Algorithm D), gcd / modular inverse and decimal/hex
/// conversion.  Multiplication switches from schoolbook to Karatsuba above
/// `kKaratsubaThreshold` limbs.
class BigUInt {
 public:
  using Limb = std::uint32_t;
  using WideLimb = std::uint64_t;
  static constexpr int kLimbBits = 32;
  /// Operand size (in limbs) above which multiplication uses Karatsuba.
  static constexpr std::size_t kKaratsubaThreshold = 24;

  /// Constructs zero.
  BigUInt() = default;
  /// Constructs from a machine word.
  BigUInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  /// Parses a lowercase/uppercase hexadecimal string (no 0x prefix required,
  /// but one is accepted). Throws std::invalid_argument on bad input.
  static BigUInt FromHex(std::string_view hex);
  /// Parses a decimal string. Throws std::invalid_argument on bad input.
  static BigUInt FromDec(std::string_view dec);
  /// Builds the value 2^exponent.
  static BigUInt PowerOfTwo(std::size_t exponent);
  /// Builds a value from raw little-endian limbs (normalizes a copy).
  static BigUInt FromLimbs(std::span<const Limb> limbs);
  /// Builds a value from little-endian 64-bit words.
  static BigUInt FromWords64(std::span<const std::uint64_t> words);
  /// Parses a big-endian byte string (the RFC 8017 OS2IP primitive; an
  /// empty span reads as zero).
  static BigUInt FromBytesBE(std::span<const std::uint8_t> bytes);

  // -- observers -------------------------------------------------------------

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1u; }
  /// Number of significant bits; zero has bit length 0.
  std::size_t BitLength() const;
  /// Returns bit `index` (0 = least significant); out-of-range bits read 0.
  bool Bit(std::size_t index) const;
  /// Number of set bits (Hamming weight).
  std::size_t PopCount() const;
  /// Number of limbs in the normalized representation.
  std::size_t LimbCount() const { return limbs_.size(); }
  /// Limb `i` (0 = least significant); out-of-range limbs read 0.
  Limb LimbAt(std::size_t i) const { return i < limbs_.size() ? limbs_[i] : 0u; }
  /// Read-only access to the limb vector (little-endian, normalized).
  std::span<const Limb> Limbs() const { return limbs_; }
  /// Converts to uint64_t; truncates silently if the value does not fit.
  std::uint64_t ToUint64() const;
  /// Writes the value as little-endian 64-bit words, zero-padded to
  /// words.size(); truncates silently if the value does not fit.
  void ToWords64(std::span<std::uint64_t> words) const;

  // -- mutators --------------------------------------------------------------

  /// Sets bit `index` to `value`, growing the representation as needed.
  void SetBit(std::size_t index, bool value);

  // -- arithmetic ------------------------------------------------------------

  friend BigUInt operator+(const BigUInt& a, const BigUInt& b);
  /// Subtraction requires a >= b; throws std::underflow_error otherwise.
  friend BigUInt operator-(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator*(const BigUInt& a, const BigUInt& b);
  /// Quotient; throws std::domain_error when b == 0.
  friend BigUInt operator/(const BigUInt& a, const BigUInt& b);
  /// Remainder; throws std::domain_error when b == 0.
  friend BigUInt operator%(const BigUInt& a, const BigUInt& b);

  BigUInt& operator+=(const BigUInt& rhs);
  BigUInt& operator-=(const BigUInt& rhs);
  BigUInt& operator*=(const BigUInt& rhs);
  BigUInt& operator<<=(std::size_t bits);
  BigUInt& operator>>=(std::size_t bits);
  BigUInt operator<<(std::size_t bits) const;
  BigUInt operator>>(std::size_t bits) const;

  /// Computes quotient and remainder in one pass (Knuth Algorithm D).
  /// Throws std::domain_error when divisor == 0.
  static void DivMod(const BigUInt& dividend, const BigUInt& divisor,
                     BigUInt& quotient, BigUInt& remainder);

  // -- comparisons -----------------------------------------------------------

  friend bool operator==(const BigUInt& a, const BigUInt& b) {
    return a.limbs_ == b.limbs_;
  }
  friend bool operator!=(const BigUInt& a, const BigUInt& b) { return !(a == b); }
  friend bool operator<(const BigUInt& a, const BigUInt& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const BigUInt& a, const BigUInt& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const BigUInt& a, const BigUInt& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const BigUInt& a, const BigUInt& b) {
    return Compare(a, b) >= 0;
  }
  /// Three-way comparison: negative if a < b, 0 if equal, positive if a > b.
  static int Compare(const BigUInt& a, const BigUInt& b);

  // -- number theory helpers ---------------------------------------------------

  /// Greatest common divisor (binary GCD).
  static BigUInt Gcd(BigUInt a, BigUInt b);
  /// Modular inverse of a mod m; throws std::domain_error when gcd(a,m) != 1.
  static BigUInt ModInverse(const BigUInt& a, const BigUInt& m);
  /// Plain square-and-multiply modular exponentiation (left-to-right).
  static BigUInt ModExp(const BigUInt& base, const BigUInt& exponent,
                        const BigUInt& modulus);

  // -- conversion --------------------------------------------------------------

  /// Lowercase hexadecimal, no prefix, "0" for zero.
  std::string ToHex() const;
  /// Decimal string.
  std::string ToDec() const;
  /// Big-endian byte string, left-padded with zeros to at least
  /// `min_length` bytes (the RFC 8017 I2OSP primitive).  A value needing
  /// more than `min_length` bytes gets its natural length — never
  /// truncated.  Zero with min_length 0 yields an empty vector.
  std::vector<std::uint8_t> ToBytesBE(std::size_t min_length = 0) const;

 private:
  void Normalize();
  static BigUInt MulSchoolbook(std::span<const Limb> a, std::span<const Limb> b);
  static BigUInt MulKaratsuba(std::span<const Limb> a, std::span<const Limb> b);

  std::vector<Limb> limbs_;
};

}  // namespace mont::bignum
