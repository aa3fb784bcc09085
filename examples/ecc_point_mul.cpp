// ecc_point_mul — the paper's future-work direction (§5): an elliptic
// curve Diffie-Hellman exchange over NIST P-192 where every field
// multiplication goes through the paper's Algorithm 2.  Exits 1 if a
// public key is off the curve or the two shared secrets differ.
//
//   $ ./examples/ecc_point_mul
#include <cstdio>

#include "bignum/random.hpp"
#include "core/netlist_gen.hpp"
#include "crypto/ecc.hpp"
#include "fpga/device_model.hpp"

int main() {
  using mont::bignum::BigUInt;
  using mont::crypto::AffinePoint;
  using mont::crypto::Curve;
  using mont::crypto::CurveParams;
  using mont::crypto::EccStats;

  std::printf("=== ECDH on secp192r1 over the MMMC field multiplier ===\n\n");
  const Curve curve(CurveParams::Secp192r1());
  const AffinePoint g = curve.Generator();
  std::printf("G = (0x%s,\n     0x%s)\n", g.x.ToHex().c_str(),
              g.y.ToHex().c_str());

  mont::bignum::RandomBigUInt rng(0xecd4u);
  const BigUInt alice_secret = rng.ExactBits(190);
  const BigUInt bob_secret = rng.ExactBits(190);

  EccStats alice_stats, bob_stats;
  const AffinePoint alice_pub =
      curve.ScalarMul(alice_secret, g, &alice_stats);
  const AffinePoint bob_pub = curve.ScalarMul(bob_secret, g, &bob_stats);
  const bool alice_ok = curve.IsOnCurve(alice_pub);
  const bool bob_ok = curve.IsOnCurve(bob_pub);
  std::printf("\nAlice pub: x = 0x%s (on curve: %s)\n",
              alice_pub.x.ToHex().c_str(), alice_ok ? "yes" : "NO");
  std::printf("Bob   pub: x = 0x%s (on curve: %s)\n",
              bob_pub.x.ToHex().c_str(), bob_ok ? "yes" : "NO");

  EccStats shared_stats;
  const AffinePoint shared_a =
      curve.ScalarMul(alice_secret, bob_pub, &shared_stats);
  const AffinePoint shared_b = curve.ScalarMul(bob_secret, alice_pub);
  std::printf("\nshared secret x = 0x%s\n", shared_a.x.ToHex().c_str());
  const bool agree = shared_a == shared_b;
  std::printf("both sides agree: %s\n", agree ? "yes" : "NO");

  const std::size_t l = curve.Params().p.BitLength();
  const auto gen = mont::core::BuildMmmcNetlist(l);
  const auto fpga = mont::fpga::AnalyzeNetlist(*gen.netlist);
  const std::uint64_t cycles = shared_stats.ModeledCycles(l);
  std::printf("\none scalar multiplication: %llu field multiplications = "
              "%llu MMMC cycles\n",
              static_cast<unsigned long long>(shared_stats.field_mults +
                                              shared_stats.field_squares),
              static_cast<unsigned long long>(cycles));
  std::printf("on the modelled V812E (-8): %.3f ms (%zu slices)\n",
              static_cast<double>(cycles) * fpga.clock_period_ns * 1e-6,
              fpga.slices);
  return alice_ok && bob_ok && agree ? 0 : 1;
}
