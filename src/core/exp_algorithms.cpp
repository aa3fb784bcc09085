#include "core/exp_algorithms.hpp"

#include <stdexcept>

namespace mont::core {

using bignum::BigUInt;

const char* ExpAlgorithmName(ExpAlgorithm algorithm) {
  switch (algorithm) {
    case ExpAlgorithm::kLeftToRight: return "left-to-right binary";
    case ExpAlgorithm::kRightToLeft: return "right-to-left binary";
    case ExpAlgorithm::kSlidingWindow: return "sliding window";
    case ExpAlgorithm::kMontgomeryLadder: return "Montgomery ladder";
  }
  return "?";
}

MultiExponentiator::MultiExponentiator(BigUInt modulus)
    : ctx_(std::move(modulus)) {}

namespace {

void Record(ExpTrace* trace, MmmOp op) {
  if (trace == nullptr) return;
  trace->operations.push_back(op);
  if (op == MmmOp::kSquare) {
    ++trace->squarings;
  } else {
    ++trace->multiplications;
  }
}

void RecordPre(ExpTrace* trace, std::uint64_t count = 1) {
  if (trace != nullptr) trace->precompute_mmms += count;
}

}  // namespace

BigUInt MultiExponentiator::ModExp(const BigUInt& base, const BigUInt& exponent,
                                   ExpAlgorithm algorithm, int window_bits,
                                   ExpTrace* trace) const {
  const BigUInt& n = Modulus();
  if (exponent.IsZero()) return BigUInt{1} % n;
  const BigUInt m = base % n;
  const BigUInt m_mont = ctx_.Multiply(m, ctx_.RSquaredModN());
  RecordPre(trace);

  BigUInt a;
  switch (algorithm) {
    case ExpAlgorithm::kLeftToRight:
      a = LeftToRight(m_mont, exponent, trace);
      break;
    case ExpAlgorithm::kRightToLeft:
      a = RightToLeft(m_mont, exponent, trace);
      break;
    case ExpAlgorithm::kSlidingWindow:
      if (window_bits < 2 || window_bits > 8) {
        throw std::invalid_argument("ModExp: window_bits must be in [2, 8]");
      }
      a = SlidingWindow(m_mont, exponent, window_bits, trace);
      break;
    case ExpAlgorithm::kMontgomeryLadder:
      a = Ladder(m_mont, exponent, trace);
      break;
  }

  BigUInt out = ctx_.Multiply(a, BigUInt{1});
  RecordPre(trace);
  if (out >= n) out -= n;
  return out;
}

BigUInt MultiExponentiator::LeftToRight(const BigUInt& m_mont, const BigUInt& e,
                                        ExpTrace* t) const {
  BigUInt a = m_mont;
  for (std::size_t i = e.BitLength() - 1; i-- > 0;) {
    a = ctx_.Multiply(a, a);
    Record(t, MmmOp::kSquare);
    if (e.Bit(i)) {
      a = ctx_.Multiply(a, m_mont);
      Record(t, MmmOp::kMultiply);
    }
  }
  return a;
}

BigUInt MultiExponentiator::RightToLeft(const BigUInt& m_mont, const BigUInt& e,
                                        ExpTrace* t) const {
  // A accumulates; S holds m^(2^i).  One extra squaring chain, but the
  // squarings do not depend on the exponent bits at all.
  BigUInt one_mont = ctx_.Multiply(ctx_.RSquaredModN(), BigUInt{1});
  RecordPre(t);
  BigUInt a = one_mont;
  BigUInt s = m_mont;
  const std::size_t bits = e.BitLength();
  for (std::size_t i = 0; i < bits; ++i) {
    if (e.Bit(i)) {
      a = ctx_.Multiply(a, s);
      Record(t, MmmOp::kMultiply);
    }
    if (i + 1 < bits) {
      s = ctx_.Multiply(s, s);
      Record(t, MmmOp::kSquare);
    }
  }
  return a;
}

BigUInt MultiExponentiator::SlidingWindow(const BigUInt& m_mont,
                                          const BigUInt& e, int w,
                                          ExpTrace* t) const {
  // Precompute odd powers m^1, m^3, ..., m^(2^w - 1) in the domain.
  const std::size_t table_size = std::size_t{1} << (w - 1);
  std::vector<BigUInt> odd_powers(table_size);
  odd_powers[0] = m_mont;
  const BigUInt m2 = ctx_.Multiply(m_mont, m_mont);
  RecordPre(t);
  for (std::size_t i = 1; i < table_size; ++i) {
    odd_powers[i] = ctx_.Multiply(odd_powers[i - 1], m2);
    RecordPre(t);
  }

  BigUInt a;
  bool started = false;
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(e.BitLength()) - 1;
  while (i >= 0) {
    if (!e.Bit(static_cast<std::size_t>(i))) {
      if (started) {
        a = ctx_.Multiply(a, a);
        Record(t, MmmOp::kSquare);
      }
      --i;
      continue;
    }
    // Take the longest window ending in a 1-bit, at most w bits.
    std::ptrdiff_t bottom = i - w + 1;
    if (bottom < 0) bottom = 0;
    while (!e.Bit(static_cast<std::size_t>(bottom))) ++bottom;
    std::uint64_t value = 0;
    for (std::ptrdiff_t b = i; b >= bottom; --b) {
      value = (value << 1) | (e.Bit(static_cast<std::size_t>(b)) ? 1u : 0u);
    }
    const std::size_t width = static_cast<std::size_t>(i - bottom + 1);
    if (!started) {
      a = odd_powers[(value - 1) / 2];
      started = true;
    } else {
      for (std::size_t s = 0; s < width; ++s) {
        a = ctx_.Multiply(a, a);
        Record(t, MmmOp::kSquare);
      }
      a = ctx_.Multiply(a, odd_powers[(value - 1) / 2]);
      Record(t, MmmOp::kMultiply);
    }
    i = bottom - 1;
  }
  return a;
}

BigUInt MultiExponentiator::Ladder(const BigUInt& m_mont, const BigUInt& e,
                                   ExpTrace* t) const {
  // Joye-Yen ladder: (R0, R1) with R1 = R0 * m always; one multiply and
  // one square per bit, independent of the bit value.
  BigUInt r0 = ctx_.Multiply(ctx_.RSquaredModN(), BigUInt{1});  // 1*R
  RecordPre(t);
  BigUInt r1 = m_mont;
  for (std::size_t i = e.BitLength(); i-- > 0;) {
    if (e.Bit(i)) {
      r0 = ctx_.Multiply(r0, r1);
      Record(t, MmmOp::kMultiply);
      r1 = ctx_.Multiply(r1, r1);
      Record(t, MmmOp::kSquare);
    } else {
      r1 = ctx_.Multiply(r0, r1);
      Record(t, MmmOp::kMultiply);
      r0 = ctx_.Multiply(r0, r0);
      Record(t, MmmOp::kSquare);
    }
  }
  return r0;
}

std::vector<bool> RecoverExponentFromTrace(const std::vector<MmmOp>& trace) {
  // Left-to-right binary: the loop body is "square [multiply]" per bit.
  // A square followed by a multiply leaks bit=1; a square followed by
  // another square (or end) leaks bit=0.  A constant S/M cadence (the
  // ladder) decodes to all-ones garbage with no correlation to the key —
  // callers compare recovered bits against truth to quantify leakage.
  std::vector<bool> bits;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i] != MmmOp::kSquare) continue;
    const bool followed_by_multiply =
        i + 1 < trace.size() && trace[i + 1] == MmmOp::kMultiply;
    bits.push_back(followed_by_multiply);
  }
  return bits;
}

}  // namespace mont::core
