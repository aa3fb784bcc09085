#include "bignum/biguint.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mont::bignum {

namespace {

constexpr std::uint64_t kLimbBase = 1ull << BigUInt::kLimbBits;

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

BigUInt::BigUInt(std::uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<Limb>(value & 0xffffffffu));
    if (value >> 32) limbs_.push_back(static_cast<Limb>(value >> 32));
  }
}

BigUInt BigUInt::FromHex(std::string_view hex) {
  if (hex.substr(0, 2) == "0x" || hex.substr(0, 2) == "0X") hex.remove_prefix(2);
  if (hex.empty()) throw std::invalid_argument("BigUInt::FromHex: empty string");
  BigUInt out;
  out.limbs_.assign((hex.size() * 4 + kLimbBits - 1) / kLimbBits, 0);
  std::size_t bit = 0;
  for (std::size_t i = hex.size(); i-- > 0;) {
    const int digit = HexDigit(hex[i]);
    if (digit < 0) throw std::invalid_argument("BigUInt::FromHex: bad digit");
    out.limbs_[bit / kLimbBits] |=
        static_cast<Limb>(digit) << (bit % kLimbBits);
    bit += 4;
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::FromBytesBE(std::span<const std::uint8_t> bytes) {
  BigUInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  std::size_t shift = 0;
  std::size_t limb = 0;
  // bytes[size-1] is the least significant byte; walk it into limb 0 up.
  for (std::size_t i = bytes.size(); i-- > 0;) {
    out.limbs_[limb] |= static_cast<Limb>(bytes[i]) << shift;
    shift += 8;
    if (shift == kLimbBits) {
      shift = 0;
      ++limb;
    }
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::FromDec(std::string_view dec) {
  if (dec.empty()) throw std::invalid_argument("BigUInt::FromDec: empty string");
  BigUInt out;
  for (const char c : dec) {
    if (c < '0' || c > '9') throw std::invalid_argument("BigUInt::FromDec: bad digit");
    // out = out * 10 + digit, done in place on the limb vector.
    WideLimb carry = static_cast<WideLimb>(c - '0');
    for (auto& limb : out.limbs_) {
      const WideLimb v = static_cast<WideLimb>(limb) * 10u + carry;
      limb = static_cast<Limb>(v & 0xffffffffu);
      carry = v >> 32;
    }
    if (carry != 0) out.limbs_.push_back(static_cast<Limb>(carry));
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::PowerOfTwo(std::size_t exponent) {
  BigUInt out;
  out.limbs_.assign(exponent / kLimbBits + 1, 0);
  out.limbs_.back() = Limb{1} << (exponent % kLimbBits);
  return out;
}

BigUInt BigUInt::FromLimbs(std::span<const Limb> limbs) {
  BigUInt out;
  out.limbs_.assign(limbs.begin(), limbs.end());
  out.Normalize();
  return out;
}

BigUInt BigUInt::FromWords64(std::span<const std::uint64_t> words) {
  BigUInt out;
  out.limbs_.resize(2 * words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    out.limbs_[2 * i] = static_cast<Limb>(words[i]);
    out.limbs_[2 * i + 1] = static_cast<Limb>(words[i] >> kLimbBits);
  }
  out.Normalize();
  return out;
}

void BigUInt::ToWords64(std::span<std::uint64_t> words) const {
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = static_cast<std::uint64_t>(LimbAt(2 * i)) |
               static_cast<std::uint64_t>(LimbAt(2 * i + 1)) << kLimbBits;
  }
}

std::size_t BigUInt::BitLength() const {
  if (limbs_.empty()) return 0;
  const Limb top = limbs_.back();
  return (limbs_.size() - 1) * kLimbBits +
         (kLimbBits - static_cast<std::size_t>(__builtin_clz(top)));
}

bool BigUInt::Bit(std::size_t index) const {
  const std::size_t limb = index / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (index % kLimbBits)) & 1u;
}

std::size_t BigUInt::PopCount() const {
  std::size_t total = 0;
  for (const Limb limb : limbs_) total += static_cast<std::size_t>(__builtin_popcount(limb));
  return total;
}

std::uint64_t BigUInt::ToUint64() const {
  std::uint64_t v = limbs_.empty() ? 0u : limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

void BigUInt::SetBit(std::size_t index, bool value) {
  const std::size_t limb = index / kLimbBits;
  if (limb >= limbs_.size()) {
    if (!value) return;
    limbs_.resize(limb + 1, 0);
  }
  const Limb mask = Limb{1} << (index % kLimbBits);
  if (value) {
    limbs_[limb] |= mask;
  } else {
    limbs_[limb] &= ~mask;
    Normalize();
  }
}

void BigUInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

int BigUInt::Compare(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUInt& BigUInt::operator+=(const BigUInt& rhs) {
  if (limbs_.size() < rhs.limbs_.size()) limbs_.resize(rhs.limbs_.size(), 0);
  WideLimb carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const WideLimb sum = static_cast<WideLimb>(limbs_[i]) +
                         (i < rhs.limbs_.size() ? rhs.limbs_[i] : 0u) + carry;
    limbs_[i] = static_cast<Limb>(sum & 0xffffffffu);
    carry = sum >> 32;
    if (carry == 0 && i >= rhs.limbs_.size()) break;
  }
  if (carry != 0) limbs_.push_back(static_cast<Limb>(carry));
  return *this;
}

BigUInt& BigUInt::operator-=(const BigUInt& rhs) {
  if (Compare(*this, rhs) < 0) {
    throw std::underflow_error("BigUInt subtraction would be negative");
  }
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) -
                        (i < rhs.limbs_.size() ? rhs.limbs_[i] : 0u) - borrow;
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    limbs_[i] = static_cast<Limb>(diff);
    if (borrow == 0 && i >= rhs.limbs_.size()) break;
  }
  assert(borrow == 0);
  Normalize();
  return *this;
}

BigUInt operator+(const BigUInt& a, const BigUInt& b) {
  BigUInt out = a;
  out += b;
  return out;
}

BigUInt operator-(const BigUInt& a, const BigUInt& b) {
  BigUInt out = a;
  out -= b;
  return out;
}

BigUInt BigUInt::MulSchoolbook(std::span<const Limb> a, std::span<const Limb> b) {
  BigUInt out;
  if (a.empty() || b.empty()) return out;
  out.limbs_.assign(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    WideLimb carry = 0;
    const WideLimb ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const WideLimb v = ai * b[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<Limb>(v & 0xffffffffu);
      carry = v >> 32;
    }
    out.limbs_[i + b.size()] = static_cast<Limb>(carry);
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::MulKaratsuba(std::span<const Limb> a, std::span<const Limb> b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return MulSchoolbook(a, b);
  }
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  const auto lo = [&](std::span<const Limb> v) {
    return v.subspan(0, std::min(half, v.size()));
  };
  const auto hi = [&](std::span<const Limb> v) {
    return v.size() > half ? v.subspan(half) : std::span<const Limb>{};
  };
  const BigUInt a_lo = FromLimbs(lo(a)), a_hi = FromLimbs(hi(a));
  const BigUInt b_lo = FromLimbs(lo(b)), b_hi = FromLimbs(hi(b));

  const BigUInt z0 = MulKaratsuba(a_lo.limbs_, b_lo.limbs_);
  const BigUInt z2 = MulKaratsuba(a_hi.limbs_, b_hi.limbs_);
  const BigUInt sum_a = a_lo + a_hi;
  const BigUInt sum_b = b_lo + b_hi;
  BigUInt z1 = MulKaratsuba(sum_a.limbs_, sum_b.limbs_);
  z1 -= z0;
  z1 -= z2;

  BigUInt out = z2;
  out <<= (half * kLimbBits);
  out += z1;
  out <<= (half * kLimbBits);
  out += z0;
  return out;
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) {
  return BigUInt::MulKaratsuba(a.limbs_, b.limbs_);
}

BigUInt& BigUInt::operator*=(const BigUInt& rhs) {
  *this = *this * rhs;
  return *this;
}

BigUInt& BigUInt::operator<<=(std::size_t bits) {
  if (limbs_.empty() || bits == 0) return *this;
  const std::size_t limb_shift = bits / kLimbBits;
  const std::size_t bit_shift = bits % kLimbBits;
  limbs_.insert(limbs_.begin(), limb_shift, 0);
  if (bit_shift != 0) {
    Limb carry = 0;
    for (std::size_t i = limb_shift; i < limbs_.size(); ++i) {
      const Limb next_carry = limbs_[i] >> (kLimbBits - bit_shift);
      limbs_[i] = (limbs_[i] << bit_shift) | carry;
      carry = next_carry;
    }
    if (carry != 0) limbs_.push_back(carry);
  }
  return *this;
}

BigUInt& BigUInt::operator>>=(std::size_t bits) {
  if (limbs_.empty() || bits == 0) return *this;
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  limbs_.erase(limbs_.begin(),
               limbs_.begin() + static_cast<std::ptrdiff_t>(limb_shift));
  const std::size_t bit_shift = bits % kLimbBits;
  if (bit_shift != 0) {
    for (std::size_t i = 0; i + 1 < limbs_.size(); ++i) {
      limbs_[i] = (limbs_[i] >> bit_shift) |
                  (limbs_[i + 1] << (kLimbBits - bit_shift));
    }
    limbs_.back() >>= bit_shift;
  }
  Normalize();
  return *this;
}

BigUInt BigUInt::operator<<(std::size_t bits) const {
  BigUInt out = *this;
  out <<= bits;
  return out;
}

BigUInt BigUInt::operator>>(std::size_t bits) const {
  BigUInt out = *this;
  out >>= bits;
  return out;
}

// Knuth TAOCP vol. 2, Algorithm D (4.3.1), with 32-bit digits.
void BigUInt::DivMod(const BigUInt& dividend, const BigUInt& divisor,
                     BigUInt& quotient, BigUInt& remainder) {
  if (divisor.IsZero()) throw std::domain_error("BigUInt division by zero");
  if (Compare(dividend, divisor) < 0) {
    quotient = BigUInt{};
    remainder = dividend;
    return;
  }
  if (divisor.limbs_.size() == 1) {
    // Short division.
    const WideLimb d = divisor.limbs_[0];
    BigUInt q;
    q.limbs_.assign(dividend.limbs_.size(), 0);
    WideLimb rem = 0;
    for (std::size_t i = dividend.limbs_.size(); i-- > 0;) {
      const WideLimb cur = (rem << 32) | dividend.limbs_[i];
      q.limbs_[i] = static_cast<Limb>(cur / d);
      rem = cur % d;
    }
    q.Normalize();
    quotient = std::move(q);
    remainder = BigUInt{rem};
    return;
  }

  // D1: normalize so that the divisor's top limb has its high bit set.
  const int shift = __builtin_clz(divisor.limbs_.back());
  BigUInt u = dividend << static_cast<std::size_t>(shift);
  const BigUInt v = divisor << static_cast<std::size_t>(shift);
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m+n+1 digits.

  BigUInt q;
  q.limbs_.assign(m + 1, 0);
  const WideLimb v_top = v.limbs_[n - 1];
  const WideLimb v_next = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat.
    const WideLimb numerator =
        (static_cast<WideLimb>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    WideLimb q_hat = numerator / v_top;
    WideLimb r_hat = numerator % v_top;
    while (q_hat >= kLimbBase ||
           q_hat * v_next > ((r_hat << 32) | u.limbs_[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >= kLimbBase) break;
    }
    // D4: multiply-and-subtract u[j..j+n] -= q_hat * v.
    std::int64_t borrow = 0;
    WideLimb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const WideLimb product = q_hat * v.limbs_[i] + carry;
      carry = product >> 32;
      const std::int64_t diff = static_cast<std::int64_t>(u.limbs_[i + j]) -
                                static_cast<std::int64_t>(product & 0xffffffffu) -
                                borrow;
      u.limbs_[i + j] = static_cast<Limb>(diff & 0xffffffff);
      borrow = diff < 0 ? 1 : 0;
    }
    const std::int64_t diff = static_cast<std::int64_t>(u.limbs_[j + n]) -
                              static_cast<std::int64_t>(carry) - borrow;
    u.limbs_[j + n] = static_cast<Limb>(diff & 0xffffffff);

    if (diff < 0) {
      // D6: q_hat was one too large; add v back.
      --q_hat;
      WideLimb add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const WideLimb sum =
            static_cast<WideLimb>(u.limbs_[i + j]) + v.limbs_[i] + add_carry;
        u.limbs_[i + j] = static_cast<Limb>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      u.limbs_[j + n] =
          static_cast<Limb>(u.limbs_[j + n] + static_cast<Limb>(add_carry));
    }
    q.limbs_[j] = static_cast<Limb>(q_hat);
  }

  q.Normalize();
  quotient = std::move(q);
  u.limbs_.resize(n);
  u.Normalize();
  u >>= static_cast<std::size_t>(shift);
  remainder = std::move(u);
}

BigUInt operator/(const BigUInt& a, const BigUInt& b) {
  BigUInt q, r;
  BigUInt::DivMod(a, b, q, r);
  return q;
}

BigUInt operator%(const BigUInt& a, const BigUInt& b) {
  BigUInt q, r;
  BigUInt::DivMod(a, b, q, r);
  return r;
}

BigUInt BigUInt::Gcd(BigUInt a, BigUInt b) {
  if (a.IsZero()) return b;
  if (b.IsZero()) return a;
  // Binary GCD: strip common powers of two, then subtract.
  std::size_t common_twos = 0;
  while (!a.IsOdd() && !b.IsOdd()) {
    a >>= 1;
    b >>= 1;
    ++common_twos;
  }
  while (!a.IsOdd()) a >>= 1;
  while (!b.IsZero()) {
    while (!b.IsOdd()) b >>= 1;
    if (Compare(a, b) > 0) std::swap(a, b);
    b -= a;
  }
  return a << common_twos;
}

BigUInt BigUInt::ModInverse(const BigUInt& a, const BigUInt& m) {
  // Extended Euclid on (a mod m, m) tracking only the coefficient of a.
  // Signed bookkeeping is emulated with (value, negative?) pairs.
  if (m.IsZero()) throw std::domain_error("ModInverse: zero modulus");
  BigUInt r0 = m, r1 = a % m;
  BigUInt s0 = BigUInt{0}, s1 = BigUInt{1};
  bool s0_neg = false, s1_neg = false;
  while (!r1.IsZero()) {
    BigUInt q, r2;
    DivMod(r0, r1, q, r2);
    // s2 = s0 - q*s1 with sign tracking.
    const BigUInt qs1 = q * s1;
    BigUInt s2;
    bool s2_neg = false;
    if (s0_neg == s1_neg) {
      // s0 and q*s1 have the same sign: result is s0 - qs1 in magnitude.
      if (Compare(s0, qs1) >= 0) {
        s2 = s0 - qs1;
        s2_neg = s0_neg;
      } else {
        s2 = qs1 - s0;
        s2_neg = !s0_neg;
      }
    } else {
      s2 = s0 + qs1;
      s2_neg = s0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s0_neg = s1_neg;
    s1 = std::move(s2);
    s1_neg = s2_neg;
  }
  if (!r0.IsOne()) throw std::domain_error("ModInverse: not invertible");
  BigUInt inv = s0 % m;
  if (s0_neg && !inv.IsZero()) inv = m - inv;
  return inv;
}

BigUInt BigUInt::ModExp(const BigUInt& base, const BigUInt& exponent,
                        const BigUInt& modulus) {
  if (modulus.IsZero()) throw std::domain_error("ModExp: zero modulus");
  if (modulus.IsOne()) return BigUInt{};
  BigUInt result{1};
  const BigUInt b = base % modulus;
  const std::size_t bits = exponent.BitLength();
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % modulus;
    if (exponent.Bit(i)) result = (result * b) % modulus;
  }
  return result;
}

std::vector<std::uint8_t> BigUInt::ToBytesBE(std::size_t min_length) const {
  const std::size_t natural = (BitLength() + 7) / 8;
  const std::size_t length = std::max(natural, min_length);
  std::vector<std::uint8_t> out(length, 0);
  for (std::size_t i = 0; i < natural; ++i) {
    // Byte i of the value (little-endian index) lands at out[length-1-i].
    const Limb limb = limbs_[i / 4];
    out[length - 1 - i] = static_cast<std::uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

std::string BigUInt::ToHex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(limbs_.size() * 8);
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nibble = 7; nibble >= 0; --nibble) {
      const unsigned d = (limbs_[i] >> (nibble * 4)) & 0xfu;
      if (leading && d == 0) continue;
      leading = false;
      out.push_back(kDigits[d]);
    }
  }
  return out;
}

std::string BigUInt::ToDec() const {
  if (limbs_.empty()) return "0";
  std::vector<Limb> work = limbs_;
  std::string out;
  while (!work.empty()) {
    // Divide the limb vector by 10^9 and emit 9 decimal digits at a time.
    constexpr WideLimb kChunk = 1000000000u;
    WideLimb rem = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      const WideLimb cur = (rem << 32) | work[i];
      work[i] = static_cast<Limb>(cur / kChunk);
      rem = cur % kChunk;
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    for (int d = 0; d < 9; ++d) {
      out.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
      if (work.empty() && rem == 0) break;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace mont::bignum
