#include "bignum/mont_kernel.hpp"

#include <algorithm>
#include <stdexcept>

namespace mont::bignum {

namespace {

using Limb = MontKernel::Limb;
using Wide = unsigned __int128;

}  // namespace

MontKernel::MontKernel(const BigUInt& modulus, std::size_t r_bits,
                       Window window)
    : window_(window) {
  if (!modulus.IsOdd() || modulus <= BigUInt{1}) {
    throw std::invalid_argument("MontKernel: modulus must be odd > 1");
  }
  const std::size_t l = modulus.BitLength();
  if (r_bits < l) {
    throw std::invalid_argument("MontKernel: R = 2^r must exceed N");
  }
  n_limbs_ = (l + kLimbBits - 1) / kLimbBits;
  limbs_ = (l + 1 + kLimbBits - 1) / kLimbBits;  // 2N < 2^(l+1)
  full_steps_ = r_bits / kLimbBits;
  partial_bits_ = static_cast<unsigned>(r_bits % kLimbBits);
  // The product fills 2*limbs_ words; the reduction's last carry lands at
  // word full_steps_ + n_limbs_ + 1.
  scratch_limbs_ = std::max(2 * limbs_, full_steps_ + n_limbs_ + 2);
  n_.assign(limbs_, 0);
  modulus.ToWords64(n_);

  // -N^-1 mod 2^64 by Newton iteration on the 2-adic inverse: n0 is its
  // own inverse mod 8, and each step doubles the correct low bits.
  const Limb n0 = n_[0];
  Limb inv = n0;
  for (int iter = 0; iter < 5; ++iter) inv *= 2 - n0 * inv;
  n0_inv_ = 0 - inv;
}

void MontKernel::Multiply(Limb* out, const Limb* x, const Limb* y,
                          Limb* scratch) const {
  const std::size_t k = limbs_;
  const std::size_t nl = n_limbs_;
  Limb* t = scratch;
  std::fill(t, t + scratch_limbs_, Limb{0});

  // t = x * y, schoolbook.
  for (std::size_t i = 0; i < k; ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const Wide v = static_cast<Wide>(x[i]) * y[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(v);
      carry = static_cast<Limb>(v >> kLimbBits);
    }
    t[i + k] = carry;
  }

  // Word step i adds m*N at word i, with m chosen to clear word i.  The
  // step's carry out of word i+nl (0 or 1) belongs at word i+nl+1, which
  // is exactly where step i+1 deposits its own carry, so it rides along
  // there instead of rippling: every step has the same trip count.
  Limb top_carry = 0;
  const auto reduce_step = [&](std::size_t i, Limb m) {
    Limb carry = 0;
    for (std::size_t j = 0; j < nl; ++j) {
      const Wide v = static_cast<Wide>(m) * n_[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(v);
      carry = static_cast<Limb>(v >> kLimbBits);
    }
    const Wide v = static_cast<Wide>(t[i + nl]) + carry + top_carry;
    t[i + nl] = static_cast<Limb>(v);
    top_carry = static_cast<Limb>(v >> kLimbBits);
  };
  for (std::size_t i = 0; i < full_steps_; ++i) {
    reduce_step(i, t[i] * n0_inv_);
  }
  // The remaining r mod 64 bits: the low bits of n0_inv_ are -N^-1 modulo
  // 2^partial_bits_, so the masked m clears them (a zero mask when r is a
  // multiple of 64 makes this step add nothing).
  const Limb mask = (Limb{1} << partial_bits_) - 1;
  reduce_step(full_steps_, (t[full_steps_] * n0_inv_) & mask);
  // Zero whenever x*y < 2^r * N (the result then has no bits at or
  // above word full_steps_ + nl + 1); folded in so t stays exact anyway.
  t[full_steps_ + nl + 1] += top_carry;

  // out = t >> r.  The two-step left shift is 0 when partial_bits_ == 0.
  const Limb* hi = t + full_steps_;
  const unsigned b = partial_bits_;
  for (std::size_t j = 0; j < k; ++j) {
    out[j] = (hi[j] >> b) | ((hi[j + 1] << (63 - b)) << 1);
  }
  if (window_ == Window::kN) SubtractModulusIfAtLeast(out);
}

void MontKernel::SubtractModulusIfAtLeast(Limb* v) const {
  // Pass 1: the borrow of v - N decides; pass 2 subtracts N & mask.
  Limb borrow = 0;
  for (std::size_t j = 0; j < limbs_; ++j) {
    const Wide d = static_cast<Wide>(v[j]) - n_[j] - borrow;
    borrow = static_cast<Limb>(d >> kLimbBits) & 1;
  }
  const Limb mask = borrow - 1;  // all ones iff v >= N
  borrow = 0;
  for (std::size_t j = 0; j < limbs_; ++j) {
    const Wide d = static_cast<Wide>(v[j]) - (n_[j] & mask) - borrow;
    v[j] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> kLimbBits) & 1;
  }
}

BigUInt MontKernel::Multiply(const BigUInt& x, const BigUInt& y) const {
  thread_local std::vector<Limb> buffer;
  const std::size_t k = limbs_;
  if (buffer.size() < 3 * k + scratch_limbs_) {
    buffer.resize(3 * k + scratch_limbs_);
  }
  Limb* xw = buffer.data();
  Limb* yw = xw + k;
  Limb* out = yw + k;
  x.ToWords64({xw, k});
  y.ToWords64({yw, k});
  Multiply(out, xw, yw, out + k);
  return BigUInt::FromWords64({out, k});
}

}  // namespace mont::bignum
