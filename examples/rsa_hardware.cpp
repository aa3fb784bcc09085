// rsa_hardware — the paper's target application (§4.5): RSA on the
// modular exponentiator.
//
// Generates a fresh RSA key with the library's own primality testing,
// encrypts and decrypts a message through the hardware-modelled
// exponentiator, repeats the decryption through the CRT context (its two
// halves paired on the dual-channel array), and reports how long the
// private-key operation would take on the modelled Virtex-E at the
// paper's clock.  Exits 1 if either check fails.
//
//   $ ./examples/rsa_hardware [modulus_bits=512]
#include <cstdio>
#include <cstdlib>

#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/netlist_gen.hpp"
#include "crypto/rsa.hpp"
#include "fpga/device_model.hpp"

int main(int argc, char** argv) {
  const std::size_t bits =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 512;
  std::printf("=== RSA-%zu on the systolic Montgomery exponentiator ===\n\n",
              bits);

  mont::bignum::RandomBigUInt rng(0x45a512u);
  std::printf("generating key (library Miller-Rabin)...\n");
  const mont::crypto::RsaKeyPair key = mont::crypto::GenerateRsaKey(bits, rng);
  std::printf("  n = 0x%s\n  e = %s\n", key.n.ToHex().c_str(),
              key.e.ToDec().c_str());

  const mont::bignum::BigUInt message = rng.Below(key.n);
  std::printf("\nmessage    = 0x%s\n", message.ToHex().c_str());
  const mont::bignum::BigUInt ciphertext = RsaPublic(key, message);
  std::printf("ciphertext = 0x%s\n", ciphertext.ToHex().c_str());

  // The private-key operation on the bit-serial engine: the paper's
  // array products, charged the validated 3l+4 cycles per MMM.
  mont::core::EngineStats stats;
  const mont::bignum::BigUInt decrypted =
      mont::core::MakeEngine("bit-serial", key.n)
          ->ModExp(ciphertext, key.d, &stats);
  const bool round_trip_ok = decrypted == message;
  std::printf("decrypted  = 0x%s  -> round trip %s\n",
              decrypted.ToHex().c_str(), round_trip_ok ? "ok" : "FAILED");

  // The same operation through the CRT context: the p- and q-halves run
  // as one co-scheduled pair, two MMMs per 3l+5 cycles.
  const mont::crypto::RsaCrtContext context(key, "bit-serial");
  mont::core::EngineStats crt_stats;
  const bool crt_ok = context.Sign(ciphertext, &crt_stats) == decrypted;
  std::printf("CRT check  = %s  (%llu paired + %llu single issues, "
              "%llu cycles at l = %zu)\n",
              crt_ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(crt_stats.paired_issues),
              static_cast<unsigned long long>(crt_stats.single_issues),
              static_cast<unsigned long long>(crt_stats.engine_cycles),
              key.p.BitLength());

  // What would this cost on the modelled FPGA?
  const auto gen = mont::core::BuildMmmcNetlist(bits);
  const auto fpga = mont::fpga::AnalyzeNetlist(*gen.netlist);
  const std::uint64_t total_cycles = stats.engine_cycles;
  std::printf("\nprivate-key op on the modelled V812E (-8):\n");
  std::printf("  %llu MMMs (%llu squarings + %llu multiplies + pre/post), "
              "%llu cycles\n",
              static_cast<unsigned long long>(stats.mmm_invocations),
              static_cast<unsigned long long>(stats.squarings),
              static_cast<unsigned long long>(stats.multiplications),
              static_cast<unsigned long long>(total_cycles));
  std::printf("  MMMC: %zu slices, Tp = %.3f ns -> %.3f ms per decryption\n",
              fpga.slices, fpga.clock_period_ns,
              static_cast<double>(total_cycles) * fpga.clock_period_ns * 1e-6);
  return round_trip_ok && crt_ok ? 0 : 1;
}
