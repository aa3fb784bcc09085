#include "baseline/blum_paar.hpp"

#include <cmath>
#include <stdexcept>

#include "core/cells.hpp"
#include "rtl/components.hpp"

namespace mont::baseline {

using bignum::BigUInt;

BlumPaarRadix2::BlumPaarRadix2(BigUInt modulus)
    : engine_(core::MakeEngine("blum-paar", std::move(modulus))),
      l_(engine_->l()) {}

BigUInt BlumPaarRadix2::Multiply(const BigUInt& x, const BigUInt& y) const {
  return engine_->Multiply(x, y);
}

rtl::Netlist BlumPaarRadix2::BuildProcessingElement() {
  rtl::Netlist nl;
  // The datapath of one regular cell...
  const rtl::NetId t_in = nl.AddInput("t_in");
  const rtl::NetId x_in = nl.AddInput("x_in");
  const rtl::NetId y = nl.AddInput("y");
  const rtl::NetId m_in = nl.AddInput("m_in");
  const rtl::NetId n = nl.AddInput("n");
  const rtl::NetId c0_in = nl.AddInput("c0_in");
  const rtl::NetId c1_in = nl.AddInput("c1_in");
  const core::InnerCellOut cell =
      core::BuildRegularCell(nl, t_in, x_in, y, m_in, n, c0_in, c1_in);

  // ...plus the Blum-Paar PE control structure: a 3-bit command register
  // decoded into four output multiplexers that steer the result/operand
  // buses (their cells handle load/shift/multiply/output phases locally
  // instead of using a global controller).
  const rtl::NetId cmd_in0 = nl.AddInput("cmd0");
  const rtl::NetId cmd_in1 = nl.AddInput("cmd1");
  const rtl::NetId cmd_in2 = nl.AddInput("cmd2");
  const rtl::NetId cmd0 = nl.Dff(cmd_in0);
  const rtl::NetId cmd1 = nl.Dff(cmd_in1);
  const rtl::NetId cmd2 = nl.Dff(cmd_in2);
  const rtl::NetId alt0 = nl.AddInput("alt0");
  const rtl::NetId alt1 = nl.AddInput("alt1");
  // Four muxes in series-parallel on the result path: two select the data
  // source, two steer it to the t / carry registers.
  const rtl::NetId sel_a = nl.Mux(cmd0, cell.t, alt0);
  const rtl::NetId sel_b = nl.Mux(cmd1, cell.c0, alt1);
  const rtl::NetId steer_t = nl.Mux(cmd2, sel_a, sel_b);
  const rtl::NetId steer_c = nl.Mux(cmd0, sel_b, sel_a);
  nl.Dff(steer_t);
  nl.Dff(steer_c);
  nl.Dff(cell.c1);
  nl.MarkOutput(steer_t, "t_out");
  nl.MarkOutput(steer_c, "c0_out");
  (void)cmd1;
  return nl;
}

double BlumPaarRadix2::ClockPeriodNs(const fpga::DeviceParameters& device) {
  const rtl::Netlist pe = BuildProcessingElement();
  return fpga::AnalyzeNetlist(pe, device).clock_period_ns;
}

std::uint64_t HighRadixModel::MultiplyCycles(std::size_t l) const {
  const std::size_t words = (l + 2 + radix_bits - 1) / radix_bits + 1;
  // Same systolic skew as radix 2, but over words instead of bits.
  return 2 * words + (l + radix_bits - 1) / radix_bits + 4;
}

double HighRadixModel::ClockPeriodNs(
    const fpga::DeviceParameters& device) const {
  // Radix-2^u partial products add roughly log2(u) LUT levels plus wider
  // carry propagation inside the PE.
  const double extra_levels = std::log2(static_cast<double>(radix_bits));
  const double per_level = device.lut_delay_ns + device.net_base_ns;
  rtl::Netlist pe = BlumPaarRadix2::BuildProcessingElement();
  return fpga::AnalyzeNetlist(pe, device).clock_period_ns +
         extra_levels * per_level;
}

}  // namespace mont::baseline
