// mont_tool — a small command-line front end over the library, the kind of
// utility a downstream user reaches for first.
//
//   mont_tool modmul  <N-hex> <x-hex> <y-hex>   cycle-accurate Mont(x,y)
//   mont_tool modexp  <N-hex> <b-hex> <e-hex>   hardware-modelled b^e mod N
//   mont_tool keygen  <bits> [seed]             RSA key generation
//   mont_tool report  <l> [--dual]              FPGA mapping report
//   mont_tool gf2mul  <f-hex> <a-hex> <b-hex>   GF(2^m) Mont product
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/mmmc.hpp"
#include "core/netlist_gen.hpp"
#include "core/schedule.hpp"
#include "crypto/rsa.hpp"
#include "fpga/device_model.hpp"

namespace {

using mont::bignum::BigUInt;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mont_tool modmul <N-hex> <x-hex> <y-hex>\n"
               "  mont_tool modexp <N-hex> <b-hex> <e-hex>\n"
               "  mont_tool keygen <bits> [seed]\n"
               "  mont_tool report <l> [--dual]\n"
               "  mont_tool gf2mul <f-hex> <a-hex> <b-hex>\n");
  return 2;
}

int ModMul(const char* n_hex, const char* x_hex, const char* y_hex) {
  const BigUInt n = BigUInt::FromHex(n_hex);
  mont::core::Mmmc circuit(n);
  std::uint64_t cycles = 0;
  const BigUInt t =
      circuit.Multiply(BigUInt::FromHex(x_hex), BigUInt::FromHex(y_hex),
                       &cycles);
  std::printf("Mont(x, y) = x*y*2^-(l+2) mod N  (l = %zu)\n", circuit.l());
  std::printf("result = 0x%s\ncycles = %llu (3l+4)\n", t.ToHex().c_str(),
              static_cast<unsigned long long>(cycles));
  return 0;
}

int ModExp(const char* n_hex, const char* b_hex, const char* e_hex) {
  const BigUInt n = BigUInt::FromHex(n_hex);
  const auto exp = mont::core::MakeEngine("bit-serial", n);
  mont::core::EngineStats stats;
  const BigUInt r =
      exp->ModExp(BigUInt::FromHex(b_hex), BigUInt::FromHex(e_hex), &stats);
  std::printf("b^e mod N = 0x%s\n", r.ToHex().c_str());
  std::printf("%llu squarings, %llu multiplications, %llu MMM cycles on the "
              "MMMC\n",
              static_cast<unsigned long long>(stats.squarings),
              static_cast<unsigned long long>(stats.multiplications),
              static_cast<unsigned long long>(stats.engine_cycles));
  return 0;
}

int KeyGen(const char* bits_str, const char* seed_str) {
  const std::size_t bits = static_cast<std::size_t>(std::atoi(bits_str));
  const std::uint64_t seed =
      seed_str != nullptr ? std::strtoull(seed_str, nullptr, 0) : 0x5eedull;
  mont::bignum::RandomBigUInt rng(seed);
  const mont::crypto::RsaKeyPair key = mont::crypto::GenerateRsaKey(bits, rng);
  std::printf("n = 0x%s\ne = 0x%s\nd = 0x%s\np = 0x%s\nq = 0x%s\n",
              key.n.ToHex().c_str(), key.e.ToHex().c_str(),
              key.d.ToHex().c_str(), key.p.ToHex().c_str(),
              key.q.ToHex().c_str());
  return 0;
}

int Report(const char* l_str, bool dual) {
  const std::size_t l = static_cast<std::size_t>(std::atoi(l_str));
  const auto gen = mont::core::BuildMmmcNetlist(l, dual);
  const auto stats = gen.netlist->Stats();
  const auto report = mont::fpga::AnalyzeNetlist(*gen.netlist);
  std::printf("MMMC l = %zu%s\n", l, dual ? " (dual-field)" : "");
  std::printf("gates: %zu AND, %zu OR, %zu XOR, %zu NOT, %zu MUX; FFs: %zu\n",
              stats.and_gates, stats.or_gates, stats.xor_gates,
              stats.not_gates, stats.mux_gates, stats.flip_flops);
  std::printf("Virtex-E (-8): %zu LUT4, %zu slices, Tp = %.3f ns (%.1f MHz)\n",
              report.luts, report.slices, report.clock_period_ns,
              report.fmax_mhz);
  std::printf("T_MMM = %.3f us; average 1024-bit-exponent modexp at this l "
              "= %.3f ms\n",
              (3.0 * static_cast<double>(l) + 4) * report.clock_period_ns *
                  1e-3,
              static_cast<double>(
                  mont::core::ExponentiationAverageCycles(l)) *
                  report.clock_period_ns * 1e-6);
  return 0;
}

int Gf2Mul(const char* f_hex, const char* a_hex, const char* b_hex) {
  const BigUInt f = BigUInt::FromHex(f_hex);
  mont::core::Mmmc circuit(f, mont::core::FieldMode::kGf2);
  std::uint64_t cycles = 0;
  const BigUInt t =
      circuit.Multiply(BigUInt::FromHex(a_hex), BigUInt::FromHex(b_hex),
                       &cycles);
  std::printf("GF(2^%zu) Mont(a, b) = a*b*x^-(m+2) mod f\n", circuit.l());
  std::printf("result = 0x%s\ncycles = %llu (same 3l+4 schedule)\n",
              t.ToHex().c_str(), static_cast<unsigned long long>(cycles));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "modmul" && argc == 5) return ModMul(argv[2], argv[3], argv[4]);
    if (cmd == "modexp" && argc == 5) return ModExp(argv[2], argv[3], argv[4]);
    if (cmd == "keygen" && (argc == 3 || argc == 4)) {
      return KeyGen(argv[2], argc == 4 ? argv[3] : nullptr);
    }
    if (cmd == "report" && (argc == 3 || argc == 4)) {
      return Report(argv[2], argc == 4 && std::strcmp(argv[3], "--dual") == 0);
    }
    if (cmd == "gf2mul" && argc == 5) return Gf2Mul(argv[2], argv[3], argv[4]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return Usage();
}
