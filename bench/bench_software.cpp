// bench_software — §3 context: Montgomery multiplication avoids the trial
// division that dominates naive modular arithmetic.  Microbenchmarks of
// the software layers: division-based modular multiplication vs the
// word-level Montgomery variants (CIOS / SOS / FIPS), the radix-2
// Algorithms 1 and 2, the Karatsuba threshold, and the throughput of the
// hardware-model fidelity levels.
//
// The word-level kernel (bignum/mont_kernel.hpp) is timed through the
// engines on it ("bit-serial", "word-mont") next to the Algorithm-2 bit
// loop it replaced ("alg2-ref"), and the bench self-gates the ratio: the
// kernel must be at least 30x the oracle at l = 1024, measured in this
// process so the gate holds on any host (exit 1 below it).
//
// The pair_vs_solo rows time PairedModExp on two "bit-serial" engines
// against one solo ModExp at l = 256, 512 and 1024.  On a CPU with
// avx512ifma/avx512vl the pair runs on the dual-channel lanes
// (bignum/mont_lanes.hpp), and the bench self-gates the ratio at <= 1.2:
// a pair must cost about one solo exponentiation.  Elsewhere the pair
// runs back to back on the scalar kernel and the row prints SKIP; so does
// an unoptimised build (the sanitizer preset's -O0), where the lane
// intrinsics spill every register and the ratio says nothing.
//
// Self-timed (bench_timer.hpp, no benchmark-framework dependency).
// Writes BENCH_software.json; wall_* keys are host-dependent and exempt
// from the CI drift gate.  --smoke shortens the measurement windows and
// trims the gate-level sweep.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_timer.hpp"
#include "bignum/biguint.hpp"
#include "bignum/mont_lanes.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "core/mmmc.hpp"
#include "core/netlist_gen.hpp"
#include "rtl/simulator.hpp"

namespace {

using mont::bignum::BigUInt;
using mont::bignum::BitSerialMontgomery;
using mont::bignum::RandomBigUInt;
using mont::bignum::WordMontgomery;

struct Fixture {
  BigUInt n, x, y;
  explicit Fixture(std::size_t bits) {
    RandomBigUInt rng(0xbe7c4 + bits);
    n = rng.OddExactBits(bits);
    x = rng.Below(n);
    y = rng.Below(n);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double window = smoke ? 0.01 : 0.25;  // seconds per measurement

  std::vector<mont::bench::JsonRow> rows;
  std::printf("=== software layers: modular multiplication and simulation "
              "cost ===\n\n");
  std::printf("%-22s %8s | %12s %12s\n", "op", "bits", "iters", "ns/op");
  std::printf("-------------------------------+---------------------------\n");
  const auto report = [&](const char* op, std::size_t bits,
                          const mont::bench::TimedResult& timed) {
    std::printf("%-22s %8zu | %12llu %12.1f\n", op, bits,
                static_cast<unsigned long long>(timed.iterations),
                timed.wall_ns_per_op);
    rows.push_back({
        {"op", op},
        {"bits", bits},
        {"iterations", timed.iterations},
        {"wall_ns_per_op", timed.wall_ns_per_op},
    });
  };

  for (const std::size_t bits : {256u, 1024u, 2048u}) {
    const Fixture f(bits);
    report("division_modmul", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive((f.x * f.y) % f.n);
    }, window));
    const WordMontgomery ctx(f.n);
    report("montgomery_cios", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(
          ctx.Multiply(f.x, f.y, WordMontgomery::Variant::kCios));
    }, window));
    report("montgomery_sos", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(
          ctx.Multiply(f.x, f.y, WordMontgomery::Variant::kSos));
    }, window));
    report("montgomery_fips", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(
          ctx.Multiply(f.x, f.y, WordMontgomery::Variant::kFips));
    }, window));
  }

  for (const std::size_t bits : {256u, 1024u}) {
    const Fixture f(bits);
    const BitSerialMontgomery ctx(f.n);
    report("bitserial_alg1", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(ctx.MultiplyAlg1(f.x, f.y));
    }, window));
    report("bitserial_alg2", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(ctx.MultiplyAlg2(f.x, f.y));
    }, window));
  }

  // The kernel under the software engines vs the Algorithm-2 oracle.
  constexpr double kMinKernelSpeedup = 30.0;
  double speedup_at_1024 = 0;
  for (const std::size_t bits : {256u, 512u, 1024u}) {
    Fixture f(bits);
    f.x += f.n;  // in [N, 2N): the top half of Algorithm 2's window
    const auto kernel = mont::core::MakeEngine("bit-serial", f.n);
    const auto oracle = mont::core::MakeEngine("alg2-ref", f.n);
    const auto word = mont::core::MakeEngine("word-mont", f.n);
    const auto fast = mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(kernel->Multiply(f.x, f.y));
    }, window);
    report("kernel_bit_serial", bits, fast);
    const auto slow = mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(oracle->Multiply(f.x, f.y));
    }, window);
    report("alg2_ref", bits, slow);
    report("kernel_word_mont", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(word->Multiply(f.y, f.y));
    }, window));
    if (bits == 1024) speedup_at_1024 = slow.wall_ns_per_op / fast.wall_ns_per_op;
  }
  const bool kernel_gate_ok = speedup_at_1024 >= kMinKernelSpeedup;
  std::printf("kernel vs alg2-ref at l=1024: %.1fx (gate: >= %.0fx) %s\n",
              speedup_at_1024, kMinKernelSpeedup,
              kernel_gate_ok ? "ok" : "FAIL");
  rows.push_back({
      {"op", "kernel_vs_alg2_ref"},
      {"bits", std::size_t{1024}},
      {"wall_speedup", speedup_at_1024},
      {"gate_min_wall_speedup", kMinKernelSpeedup},
      {"meets_gate", kernel_gate_ok},
  });

  // Both CRT-style halves of a paired exponentiation vs one solo
  // exponentiation: the best of five alternating measurements of each, so
  // a burst of host load skews neither side.
  constexpr double kMaxPairVsSolo = 1.2;
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  const bool ifma = mont::bignum::MontLanes::Supported();
  const char* const pair_skip =
      !ifma ? "SKIP (no avx512ifma/avx512vl)"
            : !kOptimized ? "SKIP (unoptimised build)" : nullptr;
  bool pair_gate_ok = true;
  for (const std::size_t bits : {256u, 512u, 1024u}) {
    RandomBigUInt rng(0x9a1e + bits);
    const BigUInt n_a = rng.OddExactBits(bits), n_b = rng.OddExactBits(bits);
    const BigUInt base_a = rng.Below(n_a), base_b = rng.Below(n_b);
    const BigUInt exp_a = rng.ExactBits(bits), exp_b = rng.ExactBits(bits);
    const auto engine_a = mont::core::MakeEngine("bit-serial", n_a);
    const auto engine_b = mont::core::MakeEngine("bit-serial", n_b);
    double pair_ns = 0, solo_ns = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const double pair = mont::bench::TimeIt([&] {
        mont::bench::KeepAlive(mont::core::PairedModExp(
            *engine_a, base_a, exp_a, *engine_b, base_b, exp_b));
      }, window).wall_ns_per_op;
      const double solo = mont::bench::TimeIt([&] {
        mont::bench::KeepAlive(engine_a->ModExp(base_a, exp_a));
      }, window).wall_ns_per_op;
      pair_ns = rep == 0 ? pair : std::min(pair_ns, pair);
      solo_ns = rep == 0 ? solo : std::min(solo_ns, solo);
    }
    const double ratio = pair_ns / solo_ns;
    const bool ok = ratio <= kMaxPairVsSolo;
    if (pair_skip == nullptr) pair_gate_ok = pair_gate_ok && ok;
    std::printf("pair vs solo ModExp at l=%zu: %.0f / %.0f ns = %.2f "
                "(gate: <= %.1f on IFMA hosts) %s\n",
                bits, pair_ns, solo_ns, ratio, kMaxPairVsSolo,
                pair_skip != nullptr ? pair_skip : ok ? "ok" : "FAIL");
    rows.push_back({
        {"op", "pair_vs_solo"},
        {"bits", bits},
        {"ifma", ifma},
        {"wall_ratio", ratio},
        {"gate_max_wall_ratio", kMaxPairVsSolo},
    });
  }

  // Around the Karatsuba threshold (24 limbs = 768 bits) and beyond.
  for (const std::size_t bits : {512u, 768u, 1536u, 4096u, 16384u}) {
    RandomBigUInt rng(0x3141u);
    const BigUInt a = rng.ExactBits(bits);
    const BigUInt b = rng.ExactBits(bits);
    report("multiplication", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(a * b);
    }, window));
  }

  for (const std::size_t bits : {256u, 512u, 1024u}) {
    const Fixture f(bits);
    const WordMontgomery ctx(f.n);
    report("modexp_word_level", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(ctx.ModExp(f.x, f.y));
    }, window));
  }

  // Hardware-model fidelity levels: host cost of simulating one MMM.
  for (const std::size_t bits : {64u, 256u, 1024u}) {
    const Fixture f(bits);
    mont::core::Mmmc circuit(f.n);
    report("sim_behavioural", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(circuit.Multiply(f.x, f.y));
    }, window));
  }
  const std::vector<std::size_t> gate_sweep =
      smoke ? std::vector<std::size_t>{16, 64}
            : std::vector<std::size_t>{16, 64, 128};
  for (const std::size_t bits : gate_sweep) {
    const Fixture f(bits);
    const auto gen = mont::core::BuildMmmcNetlist(bits);
    mont::rtl::Simulator sim(*gen.netlist);
    for (std::size_t b = 0; b < bits; ++b) {
      sim.SetInput(gen.n_in[b], f.n.Bit(b));
    }
    report("sim_gate_level", bits, mont::bench::TimeIt([&] {
      for (std::size_t b = 0; b <= bits; ++b) {
        sim.SetInput(gen.x_in[b], f.x.Bit(b));
        sim.SetInput(gen.y_in[b], f.y.Bit(b));
      }
      sim.SetInput(gen.start, true);
      sim.Tick();
      sim.SetInput(gen.start, false);
      while (!sim.Peek(gen.done)) sim.Tick();
      sim.Tick();
    }, window));
  }

  const std::string path = mont::bench::WriteBenchJson(
      "software", rows, {{"smoke", smoke}});
  std::printf("\nJSON written to %s\n", path.c_str());
  return kernel_gate_ok && pair_gate_ok ? 0 : 1;
}
