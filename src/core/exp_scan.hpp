// exp_scan.hpp — the one §4.5 exponentiation (Algorithm 3) in the tree,
// internal to src/core (not public API).
//
// ExpScan walks the exponent left to right and names the MMM a job needs
// next; ModExpStream keeps that job's operands as BigUInts against one
// MmmEngine.  Every exponentiation drives them: MmmEngine::ModExp runs
// one stream solo (engine.cpp), and PairedModExp zips two scans onto the
// two channels of one array (exp_service.cpp), with ModExpStreams or with
// operands held in SIMD lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "bignum/biguint.hpp"
#include "core/engine.hpp"
#include "core/schedule.hpp"

namespace mont::core::detail {

// Left-to-right square-and-multiply as a sequence of MMMs: Next() names
// the one this job needs next (domain entry, square, multiply by the
// base, domain exit) and Advance() records it in the job's EngineStats and
// moves on.  The scan owns the exponent walk and every stats decision;
// the operands live with whoever computes the products.  Every MMM
// depends on the previous one *of the same job*, so two scans can be
// zipped issue-for-issue onto the two channels of one array without any
// cross-job hazard.
class ExpScan {
 public:
  enum class Op { kPre, kSquare, kMultiply, kPost, kDone };

  /// `exponent` must outlive the scan; exponent 0 needs no MMM at all.
  ExpScan(const bignum::BigUInt& exponent, std::size_t l, EngineStats* stats)
      : exponent_(exponent), l_(l), stats_(stats) {
    if (!exponent_.IsZero()) {
      next_i_ = exponent_.BitLength() - 1;
      op_ = Op::kPre;
    }
  }

  Op Next() const { return op_; }
  bool Done() const { return op_ == Op::kDone; }

  /// The product Next() asked for has been computed and stored.
  void Advance() {
    if (stats_ != nullptr) ++stats_->mmm_invocations;
    switch (op_) {
      case Op::kPre:
        AdvanceIteration();
        return;
      case Op::kSquare:
        ++squarings_;
        if (stats_ != nullptr) ++stats_->squarings;
        if (exponent_.Bit(next_i_)) {
          op_ = Op::kMultiply;
        } else {
          AdvanceIteration();
        }
        return;
      case Op::kMultiply:
        ++multiplications_;
        if (stats_ != nullptr) ++stats_->multiplications;
        AdvanceIteration();
        return;
      case Op::kPost:
        if (stats_ != nullptr) {
          // Accumulate this job's delta (like every other EngineStats
          // field), not a figure recomputed from the cumulative counters:
          // callers may reuse one stats struct across jobs.
          stats_->paper_model_cycles +=
              ExponentiationCycles(l_, squarings_, multiplications_);
        }
        op_ = Op::kDone;
        return;
      case Op::kDone:
        break;
    }
    throw std::logic_error("ExpScan: advance after completion");
  }

 private:
  // Exponent bit i is handled by the iteration entered when next_i_ == i;
  // the scan covers bits BitLength()-2 .. 0 (the top bit is the initial A).
  void AdvanceIteration() {
    if (next_i_ == 0) {
      op_ = Op::kPost;
    } else {
      --next_i_;
      op_ = Op::kSquare;
    }
  }

  const bignum::BigUInt& exponent_;
  std::size_t l_;
  EngineStats* stats_;
  std::uint64_t squarings_ = 0;        // this job's own operation counts,
  std::uint64_t multiplications_ = 0;  // independent of the caller's struct
  std::size_t next_i_ = 0;
  Op op_ = Op::kDone;
};

// One scan's operands as BigUInts against one MmmEngine, which supplies
// the field semantics (GF(p) or GF(2^m)) via MontFactor/Reduce:
// NextOperands() exposes the operands of the next MMM, Consume() stores
// the product and advances the scan.
class ModExpStream {
 public:
  ModExpStream(const MmmEngine& engine, const bignum::BigUInt& base,
               const bignum::BigUInt& exponent, EngineStats* stats)
      : engine_(engine), scan_(exponent, engine.l(), stats) {
    if (scan_.Done()) {
      result_ = engine_.Reduce(bignum::BigUInt{1});
    } else {
      m_ = engine_.Reduce(base);
    }
  }

  const ExpScan& Scan() const { return scan_; }
  bool Done() const { return scan_.Done(); }

  /// Operands of the next MMM; pointers stay valid until Consume().
  void NextOperands(const bignum::BigUInt** x,
                    const bignum::BigUInt** y) const {
    switch (scan_.Next()) {
      case ExpScan::Op::kPre:
        *x = &m_;
        *y = &engine_.MontFactor();
        return;
      case ExpScan::Op::kSquare:
        *x = &a_;
        *y = &a_;
        return;
      case ExpScan::Op::kMultiply:
        *x = &a_;
        *y = &m_mont_;
        return;
      case ExpScan::Op::kPost:
        *x = &a_;
        *y = &one_;
        return;
      case ExpScan::Op::kDone:
        break;
    }
    throw std::logic_error("ModExpStream: no operands after completion");
  }

  void Consume(bignum::BigUInt product) {
    switch (scan_.Next()) {
      case ExpScan::Op::kPre:
        m_mont_ = std::move(product);
        a_ = m_mont_;
        break;
      case ExpScan::Op::kSquare:
      case ExpScan::Op::kMultiply:
        a_ = std::move(product);
        break;
      case ExpScan::Op::kPost:
        result_ = engine_.Reduce(std::move(product));
        break;
      case ExpScan::Op::kDone:
        throw std::logic_error("ModExpStream: consume after completion");
    }
    scan_.Advance();
  }

  const bignum::BigUInt& Result() const { return result_; }

 private:
  const MmmEngine& engine_;
  ExpScan scan_;
  const bignum::BigUInt one_{1};
  bignum::BigUInt m_;       // base, canonically reduced
  bignum::BigUInt m_mont_;  // base in the Montgomery domain
  bignum::BigUInt a_;       // accumulator
  bignum::BigUInt result_;
};

}  // namespace mont::core::detail
