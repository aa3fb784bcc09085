// rsa.hpp — RSA on top of the Montgomery machinery (the paper's §4.5
// application).  Keys are generated with the repo's own primality testing;
// every exponentiation runs on a registry-selected multiplication backend
// (core/engine.hpp) — fast software arithmetic by default, any
// hardware-modelled datapath by name — so the examples and benches can
// quote cycle counts for real workloads on any engine.
//
// Every CRT private-key operation goes through one RsaCrtContext, built
// once per key: its constructor is the one place a CRT key is checked
// and prepared (dp, dq, q^-1 mod p, a mod-n verify engine).  The CRT maps
// onto the dual-channel array: its two half-size exponentiations are
// independent and (for keys from GenerateRsaKey) share a bit length, so
// RsaCrtContext::Sign runs them as one co-scheduled pair — two MMMs per
// 3l+5 cycles — and the signing service (server/signing_service.hpp)
// submits the same halves to the async ExpService, recombining with the
// context's constants.  Every CRT signature is verified (sig^e mod n
// against the input) before release (Bellcore/Lenstra fault hygiene): a
// fault in either half-exponentiation would otherwise leak a
// factorisation of n through the broken signature.
//
// Sign's optional blinding (RsaBlindingOptions) is the sca lab's
// countermeasure: base blinding by r^e and/or exponent randomization by
// k*(p-1) / k*(q-1), bit-identical to the unblinded signature and
// validated at gate level in tests/test_sca_attack.cpp (CPA collapses to
// chance).
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"

namespace mont::crypto {

struct RsaKeyPair {
  bignum::BigUInt n;  ///< modulus p*q
  bignum::BigUInt e;  ///< public exponent
  bignum::BigUInt d;  ///< private exponent
  bignum::BigUInt p;  ///< prime factor
  bignum::BigUInt q;  ///< prime factor
};

/// Generates an RSA key with a modulus of exactly `modulus_bits` bits
/// (modulus_bits must be even and >= 32).  The public exponent is 65537
/// unless it divides phi, in which case the next Fermat-style candidate is
/// used.
RsaKeyPair GenerateRsaKey(std::size_t modulus_bits, bignum::RandomBigUInt& rng);

/// m^e mod n on the named registry backend; message must be < n.
bignum::BigUInt RsaPublic(const RsaKeyPair& key, const bignum::BigUInt& m,
                          std::string_view engine = "word-mont");

/// c^d mod n, straightforward private-key operation.
bignum::BigUInt RsaPrivate(const RsaKeyPair& key, const bignum::BigUInt& c,
                           std::string_view engine = "word-mont");

/// Side-channel blinding for RsaCrtContext::Sign (the countermeasure the
/// sca lab's CPA engine validates: blinded executions degrade the attack
/// to chance while the outputs stay bit-identical).
struct RsaBlindingOptions {
  /// Multiplicative base blinding: the exponentiation runs on
  /// c * r^e mod n for a fresh unit r per call and the result is
  /// unblinded with r^-1 — the device never exponentiates a value the
  /// attacker can predict intermediates from.
  bool blind_base = true;
  /// Exponent randomization: adds k * (p-1) / k * (q-1) to the CRT half
  /// exponents with a fresh k of this many bits per call, randomizing the
  /// square/multiply schedule.  0 disables it.
  std::size_t exponent_blind_bits = 0;
};

/// A multiplicative blinding unit r (1 < r < n, gcd(r, n) = 1) and its
/// inverse mod n — the randomness behind base blinding.  Exposed so the
/// sca lab's benches and tests blind executions over arbitrary moduli
/// with the same rejection rule RsaCrtContext::Sign uses.
struct RsaBlindingUnit {
  bignum::BigUInt r;
  bignum::BigUInt r_inv;
};
RsaBlindingUnit MakeRsaBlindingUnit(const bignum::BigUInt& n,
                                    bignum::RandomBigUInt& rng);

/// The base-blinding step on its own: c * r^e mod n for a fresh unit r —
/// exactly what a base-blinded Sign feeds its half-exponentiations.
/// Exposed so the sca lab's captures trace the production blinding step
/// rather than a re-implementation.  (The unit is discarded: capture-side
/// callers never unblind.)
bignum::BigUInt BlindRsaBase(const bignum::BigUInt& c,
                             const bignum::BigUInt& e,
                             const bignum::BigUInt& n,
                             bignum::RandomBigUInt& rng);

/// Carmichael lambda(n) = lcm(p-1, q-1), the exponent-blinding group
/// order.  Throws std::invalid_argument unless key.p * key.q == key.n.
bignum::BigUInt RsaLambda(const RsaKeyPair& key);

/// One RSA private key, checked and prepared once for CRT signing.
class RsaCrtContext {
 public:
  /// Validates the CRT key — std::invalid_argument when p or q <= 1,
  /// p == q, p*q != n or q has no inverse mod p, instead of silently
  /// recombining garbage — then precomputes dp = d mod (p-1),
  /// dq = d mod (q-1) and q^-1 mod p, and builds the two half engines
  /// (the named registry backend over p and over q) and the mod-n
  /// word-mont engine of the Bellcore check.
  explicit RsaCrtContext(RsaKeyPair key, std::string_view engine = "bit-serial");

  /// c^d mod n via the CRT (two half-size exponentiations, ~4x faster
  /// than RsaPrivate, bit-identical to it).  The halves run as one
  /// co-scheduled pair (core::PairedModExp: p on channel A, q on
  /// channel B, 3l+5 cycles per MMM pair) when the backend has pairable
  /// streams and |p| == |q| (always, for GenerateRsaKey output), one
  /// after the other otherwise.  `stats` receives the issue counts and
  /// array cycles: the pair's shared accounting, or for sequential halves
  /// single_issues = both halves' MMMs and engine_cycles = their sum.
  /// With `blind_rng`, the input is base-blinded mod n before the split
  /// and/or the half exponents are randomized per `blinding`; recombination
  /// unblinds.  Before release the signature is checked against the
  /// original input (sig^e mod n == c); std::runtime_error signals a
  /// detected fault, std::invalid_argument an input >= n.
  bignum::BigUInt Sign(const bignum::BigUInt& c,
                       core::EngineStats* stats = nullptr,
                       bignum::RandomBigUInt* blind_rng = nullptr,
                       const RsaBlindingOptions& blinding = {}) const;

  const RsaKeyPair& key() const { return key_; }
  const bignum::BigUInt& dp() const { return dp_; }
  const bignum::BigUInt& dq() const { return dq_; }
  const bignum::BigUInt& q_inv() const { return q_inv_; }
  /// The mod-n backend of the Bellcore check (RsaCrtResultOk).
  const core::MmmEngine& verify_engine() const { return *verify_engine_; }
  /// Byte length of n: the PKCS#1 encoding and signature length.
  std::size_t modulus_bytes() const { return (key_.n.BitLength() + 7) / 8; }

 private:
  RsaKeyPair key_;
  bignum::BigUInt dp_, dq_, q_inv_;
  std::unique_ptr<const core::MmmEngine> engine_p_, engine_q_, verify_engine_;
};

/// Garner recombination m = mq + q * ((q^-1 (mp - mq)) mod p), with
/// q_inv = q^-1 mod p precomputed by the caller (it is a pure function of
/// the key, RsaCrtContext::q_inv()).  Exposed for pipelined-CRT callers
/// (the signing service) that recombine off-worker.
bignum::BigUInt RsaCrtRecombine(const RsaKeyPair& key,
                                const bignum::BigUInt& q_inv,
                                const bignum::BigUInt& mp,
                                const bignum::BigUInt& mq);

/// The Bellcore/Lenstra release gate as a predicate: sig^e mod n == input
/// on `verify_engine` (a mod-n backend hoisted once per key,
/// RsaCrtContext::verify_engine()).  Callers that can retry (the signing
/// service) branch on this; RsaCrtContext::Sign throws instead.
bool RsaCrtResultOk(const core::MmmEngine& verify_engine,
                    const RsaKeyPair& key, const bignum::BigUInt& input,
                    const bignum::BigUInt& sig);

}  // namespace mont::crypto
