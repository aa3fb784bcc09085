// blum_paar.hpp — comparison models for the designs the paper benchmarks
// against (§2, §4.4):
//
//  * Blum & Paar's radix-2 systolic Montgomery multiplier [3], which uses
//    the non-optimal bound R = 2^(l+3) (one extra iteration per MMM) and
//    processing elements containing 3-bit control registers driving four
//    multiplexers — a longer critical path, hence a lower clock frequency.
//
//  * Blum & Paar's high-radix variant [4] (radix 2^u), for the radix
//    ablation bench.
//
//  * The classical Algorithm-1 datapath with a final subtraction, to
//    quantify what Walter's bound saves.
//
// Each model provides (a) a functionally correct software implementation
// (so the comparison benches verify every baseline actually computes
// modular products) and (b) cycle/clock models derived from the same device
// model used for our design — the PE-with-control-muxes netlist is built
// for real and timed with the same AnalyzeNetlist pipeline.
#pragma once

#include <cstdint>
#include <memory>

#include "bignum/biguint.hpp"
#include "core/engine.hpp"
#include "fpga/device_model.hpp"
#include "rtl/netlist.hpp"

namespace mont::baseline {

/// Blum-Paar radix-2 systolic Montgomery multiplier model.  The
/// functional arithmetic is the registry's "blum-paar" backend
/// (core/engine.hpp) — this class adds the PE netlist and clock-period
/// side of the comparison.
class BlumPaarRadix2 {
 public:
  /// Requires an odd modulus > 1.
  explicit BlumPaarRadix2(bignum::BigUInt modulus);

  std::size_t l() const { return l_; }
  /// Their Montgomery parameter: R = 2^(l+3), one iteration more than the
  /// optimal bound.
  bignum::BigUInt R() const { return bignum::BigUInt::PowerOfTwo(l_ + 3); }
  std::size_t Iterations() const { return l_ + 3; }

  /// Functional model: x*y*2^-(l+3) mod N, inputs/outputs bounded by 2N
  /// (their R also satisfies R > 4N, so chaining works).
  bignum::BigUInt Multiply(const bignum::BigUInt& x,
                           const bignum::BigUInt& y) const;

  /// Cycle count for one multiplication on their pipeline: the extra
  /// iteration adds two clock cycles to the 3l+4 schedule.
  static std::uint64_t MultiplyCycles(std::size_t l) { return 3 * l + 6; }

  /// Builds one Blum-Paar-style processing element: our regular cell
  /// followed by the four control multiplexers their PEs contain, plus the
  /// 3-bit command register.  Timed with the shared device model to obtain
  /// their achievable clock period.
  static rtl::Netlist BuildProcessingElement();

  /// Clock period of the PE on the given device (cached per call).
  static double ClockPeriodNs(
      const fpga::DeviceParameters& device = fpga::DeviceParameters::VirtexE8());

 private:
  std::unique_ptr<core::MmmEngine> engine_;
  std::size_t l_ = 0;
};

/// Blum-Paar high-radix model [4]: radix 2^u processing elements.
struct HighRadixModel {
  std::size_t radix_bits;  // u

  /// Words per operand for length l.
  std::size_t Words(std::size_t l) const {
    return (l + radix_bits - 1) / radix_bits + 1;
  }
  /// Cycle count per multiplication: the pipeline processes one u-bit word
  /// per cycle with the same 2-phase skew, over ceil((l+2)/u)+1 iterations.
  std::uint64_t MultiplyCycles(std::size_t l) const;
  /// Clock period: partial-product width grows with u, adding roughly one
  /// LUT level per doubling beyond radix 2.
  double ClockPeriodNs(const fpga::DeviceParameters& device =
                           fpga::DeviceParameters::VirtexE8()) const;
};

/// Algorithm-1 baseline: identical array, but every multiplication is
/// followed by a compare-and-subtract pass over l+1 bits.
struct FinalSubtractionModel {
  static std::uint64_t MultiplyCycles(std::size_t l) {
    return (3 * l + 4) + (l + 1);
  }
};

}  // namespace mont::baseline
