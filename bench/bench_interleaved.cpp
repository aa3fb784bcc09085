// bench_interleaved — ablation: filling the array's idle parity.
//
// On the paper's 2i+j schedule every cell idles half the time (the
// MUL1/MUL2 alternation).  This bench quantifies what the idle phase is
// worth: dual-channel multiplication throughput, and right-to-left
// exponentiation with the square/multiply streams paired — against the
// paper's sequential Algorithm 3 on the same array.
//
// Writes BENCH_interleaved.json (see bench_json.hpp) so CI can track the
// pairing speedups; --smoke cuts the exponentiation sizes for the ctest
// `perf` label.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/interleaved.hpp"
#include "core/netlist_gen.hpp"
#include "core/schedule.hpp"
#include "fpga/device_model.hpp"

int main(int argc, char** argv) {
  using mont::bignum::BigUInt;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::vector<mont::bench::JsonRow> json_rows;

  std::printf("=== ablation: dual-channel (C-slow) operation of the array "
              "===\n\n");

  std::printf("--- two independent multiplications ---\n");
  std::printf("%6s %18s %18s %10s\n", "l", "sequential (cyc)",
              "interleaved (cyc)", "speedup");
  for (const std::size_t l : {32u, 128u, 512u, 1024u}) {
    const std::uint64_t seq = 2 * mont::core::MultiplyCycles(l);
    const std::uint64_t dual = mont::core::InterleavedMmmc::PairCycles(l);
    const double speedup = static_cast<double>(seq) / static_cast<double>(dual);
    std::printf("%6zu %18llu %18llu %9.3fx\n", l,
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(dual), speedup);
    json_rows.push_back({
        {"kind", "pair"},
        {"l", l},
        {"sequential_cycles", seq},
        {"interleaved_cycles", dual},
        {"speedup", speedup},
    });
  }
  std::printf("(hardware cost: one extra X register, one Y register + "
              "per-cell phase mux, one result\nregister, and per-channel "
              "copies of the two top T bits — the cell array is unchanged)\n");

  std::printf("\n--- full exponentiation: paired right-to-left vs the "
              "paper's Algorithm 3 ---\n");
  std::printf("%6s | %16s %16s %9s | %s\n", "l", "Alg.3 (cycles)",
              "paired (cycles)", "speedup", "verified");
  mont::bignum::RandomBigUInt rng(0x17e9u);
  const std::vector<std::size_t> exp_bits =
      smoke ? std::vector<std::size_t>{16u, 32u}
            : std::vector<std::size_t>{16u, 32u, 64u, 96u};
  for (const std::size_t bits : exp_bits) {
    const BigUInt n = rng.OddExactBits(bits);
    const BigUInt base = rng.Below(n);
    const BigUInt e = rng.BalancedExactBits(bits);

    mont::core::EngineStats seq_stats;
    const BigUInt want =
        mont::core::MakeEngine("bit-serial", n)->ModExp(base, e, &seq_stats);

    mont::core::InterleavedExponentiator paired(n);
    mont::core::EngineStats pair_stats;
    const BigUInt got = paired.ModExp(base, e, &pair_stats);

    const double speedup = static_cast<double>(seq_stats.engine_cycles) /
                           static_cast<double>(pair_stats.engine_cycles);
    const bool verified = got == want;
    std::printf("%6zu | %16llu %16llu %8.3fx | %s\n", bits,
                static_cast<unsigned long long>(seq_stats.engine_cycles),
                static_cast<unsigned long long>(pair_stats.engine_cycles),
                speedup, verified ? "ok" : "MISMATCH");
    json_rows.push_back({
        {"kind", "modexp"},
        {"l", bits},
        {"alg3_cycles", seq_stats.engine_cycles},
        {"paired_cycles", pair_stats.engine_cycles},
        {"paired_issues", pair_stats.paired_issues},
        {"single_issues", pair_stats.single_issues},
        {"speedup", speedup},
        {"verified", verified},
    });
  }

  // Scale the 1024-bit picture with the device model.
  {
    const std::size_t l = 1024;
    const auto gen = mont::core::BuildMmmcNetlist(l);
    const double tp = mont::fpga::AnalyzeNetlist(*gen.netlist).clock_period_ns;
    // Balanced exponent: l squares paired with l/2 multiplies -> l/2 pairs
    // + l/2 single squares (+pre/post), vs 1.5l sequential MMMs.
    const double seq_ms = static_cast<double>(
                              mont::core::ExponentiationAverageCycles(l)) *
                          tp * 1e-6;
    const std::uint64_t paired_cycles =
        (l / 2) * mont::core::InterleavedMmmc::PairCycles(l) +
        (l / 2 + 2) * mont::core::MultiplyCycles(l);
    const double paired_ms = static_cast<double>(paired_cycles) * tp * 1e-6;
    std::printf("\nRSA-1024 average decryption on the modelled V812E: "
                "%.2f ms -> %.2f ms (%.2fx)\n",
                seq_ms, paired_ms, seq_ms / paired_ms);
    json_rows.push_back({
        {"kind", "rsa1024_model"},
        {"l", l},
        {"tp_ns", tp},
        {"sequential_ms", seq_ms},
        {"paired_ms", paired_ms},
        {"speedup", seq_ms / paired_ms},
    });
  }
  const std::string path =
      mont::bench::WriteBenchJson("interleaved", json_rows, {{"smoke", smoke}});
  std::printf("\n(The paper's future-work systolic exponentiator of Iwamura "
              "et al. exploits exactly\nthis idle phase; here it is built "
              "and measured.)\nJSON written to %s\n", path.c_str());
  return 0;
}
