// quickstart — the five-minute tour of the library.
//
// Builds a Montgomery Modular Multiplication Circuit for a 64-bit modulus,
// runs one multiplication clock-by-clock, checks the result against the
// software reference, and runs a modular exponentiation on the
// hardware-modelled exponentiator.  Exits 1 if either check fails.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "core/engine.hpp"
#include "core/mmmc.hpp"
#include "core/schedule.hpp"

int main() {
  using mont::bignum::BigUInt;

  // An odd 64-bit modulus (a prime, as RSA/ECC would use).
  const BigUInt n = BigUInt::FromHex("ffffffffffffffc5");
  std::printf("modulus N = 0x%s (l = %zu bits)\n", n.ToHex().c_str(),
              n.BitLength());

  // --- 1. one Montgomery multiplication on the cycle-accurate circuit ---
  mont::core::Mmmc circuit(n);
  const BigUInt x = BigUInt::FromHex("123456789abcdef0");
  const BigUInt y = BigUInt::FromHex("fedcba9876543210");
  std::uint64_t cycles = 0;
  const BigUInt product = circuit.Multiply(x, y, &cycles);
  std::printf("\nMont(x, y) = x*y*R^-1 mod N  (R = 2^(l+2))\n");
  std::printf("  x       = 0x%s\n", x.ToHex().c_str());
  std::printf("  y       = 0x%s\n", y.ToHex().c_str());
  std::printf("  result  = 0x%s\n", product.ToHex().c_str());
  std::printf("  cycles  = %llu (= 3l+4 = %llu)\n",
              static_cast<unsigned long long>(cycles),
              static_cast<unsigned long long>(
                  mont::core::MultiplyCycles(n.BitLength())));

  // Cross-check against the software reference (paper Algorithm 2).
  const mont::bignum::BitSerialMontgomery reference(n);
  const bool product_ok = reference.MultiplyAlg2(x, y) == product;
  std::printf("  software reference agrees: %s\n", product_ok ? "yes" : "NO");

  // --- 2. full modular exponentiation (paper Algorithm 3) ---
  const auto exponentiator = mont::core::MakeEngine("mmmc", n);
  const BigUInt base{0xdeadbeefull};
  const BigUInt exponent{0x10001ull};  // the RSA public exponent F4
  mont::core::EngineStats stats;
  const BigUInt power = exponentiator->ModExp(base, exponent, &stats);
  std::printf("\n%llu^%llu mod N = 0x%s\n",
              static_cast<unsigned long long>(base.ToUint64()),
              static_cast<unsigned long long>(exponent.ToUint64()),
              power.ToHex().c_str());
  std::printf("  squarings=%llu multiplications=%llu, %llu cycles measured "
              "on the circuit\n",
              static_cast<unsigned long long>(stats.squarings),
              static_cast<unsigned long long>(stats.multiplications),
              static_cast<unsigned long long>(stats.engine_cycles));
  const bool power_ok = BigUInt::ModExp(base, exponent, n) == power;
  std::printf("  plain-arithmetic check: %s\n", power_ok ? "ok" : "MISMATCH");
  return product_ok && power_ok ? 0 : 1;
}
