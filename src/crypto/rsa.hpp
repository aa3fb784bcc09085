// rsa.hpp — RSA on top of the Montgomery machinery (the paper's §4.5
// application).  Keys are generated with the repo's own primality testing;
// every exponentiation runs on a registry-selected multiplication backend
// (core/engine.hpp) — fast software arithmetic by default, any
// hardware-modelled datapath by name — so the examples and benches can
// quote cycle counts for real workloads on any engine.
//
// The CRT private-key path maps onto the dual-channel array: its two
// half-size exponentiations are independent and (for keys from
// GenerateRsaKey) share a bit length, so RsaPrivateCrtPaired runs them as
// one co-scheduled pair — two MMMs per 3l+5 cycles — and RsaSignBatch
// drives a whole message stream through the async ExpService the same way.
// Every CRT path verifies sig^e mod n against the input before releasing
// a result (Bellcore/Lenstra fault hygiene): a fault in either
// half-exponentiation would otherwise leak a factorisation of n through
// the broken signature.
//
// The blinded private-key paths (RsaBlindingOptions) are the sca lab's
// countermeasure: base blinding by r^e and/or exponent randomization by
// k*lambda(n), bit-identical to the unblinded paths and validated at gate
// level in tests/test_sca_attack.cpp (CPA collapses to chance).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"

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

/// Side-channel blinding for the private-key paths (the countermeasure
/// the sca lab's CPA engine validates: blinded executions degrade the
/// attack to chance while the outputs stay bit-identical).
struct RsaBlindingOptions {
  /// Multiplicative base blinding: the exponentiation runs on
  /// c * r^e mod n for a fresh unit r per call and the result is
  /// unblinded with r^-1 — the device never exponentiates a value the
  /// attacker can predict intermediates from.
  bool blind_base = true;
  /// Exponent randomization: adds k * lambda(n) (plain path) or
  /// k * (p-1) / k * (q-1) (CRT halves) with a fresh k of this many bits
  /// per call, randomizing the square/multiply schedule.  0 disables it.
  std::size_t exponent_blind_bits = 0;
};

/// A multiplicative blinding unit r (1 < r < n, gcd(r, n) = 1) and its
/// inverse mod n — the randomness behind base blinding.  Exposed so the
/// sca lab's benches and tests blind executions over arbitrary moduli
/// with the same rejection rule the RSA paths use.
struct RsaBlindingUnit {
  bignum::BigUInt r;
  bignum::BigUInt r_inv;
};
RsaBlindingUnit MakeRsaBlindingUnit(const bignum::BigUInt& n,
                                    bignum::RandomBigUInt& rng);

/// The base-blinding step on its own: c * r^e mod n for a fresh unit r —
/// exactly what the blinded private-key paths feed their exponentiation.
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

/// Blinded c^d mod n: bit-identical to RsaPrivate for every input, with
/// the intermediate values (and optionally the operation schedule)
/// decorrelated from c.  `rng` supplies the blinding randomness (callers
/// seed it; all repo randomness is deterministic by seed).
bignum::BigUInt RsaPrivateBlinded(const RsaKeyPair& key,
                                  const bignum::BigUInt& c,
                                  bignum::RandomBigUInt& rng,
                                  const RsaBlindingOptions& options = {},
                                  std::string_view engine = "word-mont");

/// Blinded CRT private-key operation: base blinding is applied mod n
/// before the halves split (so both half-exponentiations run on blinded
/// residues), exponent blinding per CRT half, recombination unblinds, and
/// the Bellcore/Lenstra sig^e check runs against the *original* input
/// before release.  Bit-identical to RsaPrivateCrt.
bignum::BigUInt RsaPrivateCrtBlinded(const RsaKeyPair& key,
                                     const bignum::BigUInt& c,
                                     bignum::RandomBigUInt& rng,
                                     const RsaBlindingOptions& options = {},
                                     std::string_view engine = "word-mont");

/// c^d mod n using the CRT (two half-size exponentiations, ~4x faster).
/// Throws std::invalid_argument for malformed CRT keys (p == q, or
/// p*q != n) instead of silently recombining garbage, and verifies the
/// result against the public exponent before release (std::runtime_error
/// on a detected fault).
bignum::BigUInt RsaPrivateCrt(const RsaKeyPair& key, const bignum::BigUInt& c,
                              std::string_view engine = "word-mont");

/// CRT private-key operation with the two half-size exponentiations
/// co-scheduled onto one dual-channel array (core::PairedModExp): the p-
/// and q-streams occupy the two channels, so each pair of MMMs costs 3l+5
/// cycles instead of 6l+8.  Requires p and q of equal bit length (always
/// true for GenerateRsaKey output); falls back to sequential issue
/// otherwise.  `stats` reports the pair's issue counts and array cycles.
/// Before returning, the result is verified against the public exponent
/// (sig^e mod n == c); std::runtime_error signals a detected fault.
bignum::BigUInt RsaPrivateCrtPaired(const RsaKeyPair& key,
                                    const bignum::BigUInt& c,
                                    core::EngineStats* stats = nullptr,
                                    std::string_view engine = "bit-serial");

/// Signs (raw RSA private-key operation, no padding) every message through
/// `service` with a pipelined CRT: each message's p-half and q-half are
/// submitted as independent jobs (the scheduler pairs equal-length halves
/// opportunistically, including across messages), and whichever half lands
/// second posts Garner recombination plus the Bellcore/Lenstra fault check
/// to the service's continuation thread — workers never stall on
/// recombination.  Returns one signature per message; throws
/// std::runtime_error if any recombined signature fails verification.
std::vector<bignum::BigUInt> RsaSignBatch(
    const RsaKeyPair& key, std::span<const bignum::BigUInt> messages,
    core::ExpService& service);

/// Garner recombination m = mq + q * ((q^-1 (mp - mq)) mod p), with
/// q_inv = q^-1 mod p precomputed by the caller (it is a pure function of
/// the key).  Exposed for pipelined-CRT callers (RsaSignBatch-style
/// continuations, the signing service) that recombine off-worker.
bignum::BigUInt RsaCrtRecombine(const RsaKeyPair& key,
                                const bignum::BigUInt& q_inv,
                                const bignum::BigUInt& mp,
                                const bignum::BigUInt& mq);

/// The Bellcore/Lenstra release gate as a predicate: sig^e mod n == input
/// on `verify_engine` (a mod-n backend the caller hoists once per key).
/// Callers that can retry (the signing service) branch on this; the
/// throwing paths above keep throwing.
bool RsaCrtResultOk(const core::MmmEngine& verify_engine,
                    const RsaKeyPair& key, const bignum::BigUInt& input,
                    const bignum::BigUInt& sig);

}  // namespace mont::crypto
