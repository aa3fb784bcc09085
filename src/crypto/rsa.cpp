#include "crypto/rsa.hpp"

#include <stdexcept>
#include <utility>

#include "core/exp_service.hpp"
#include "crypto/prime.hpp"

namespace mont::crypto {

using bignum::BigUInt;

RsaKeyPair GenerateRsaKey(std::size_t modulus_bits,
                          bignum::RandomBigUInt& rng) {
  if (modulus_bits < 32 || modulus_bits % 2 != 0) {
    throw std::invalid_argument("GenerateRsaKey: need even modulus_bits >= 32");
  }
  const std::size_t half = modulus_bits / 2;
  for (;;) {
    RsaKeyPair key;
    key.p = GeneratePrime(half, rng);
    do {
      key.q = GeneratePrime(half, rng);
    } while (key.q == key.p);
    key.n = key.p * key.q;
    if (key.n.BitLength() != modulus_bits) continue;  // forced top bits make
                                                      // this rare
    const BigUInt lambda = RsaLambda(key);
    key.e = BigUInt{65537};
    while (!BigUInt::Gcd(key.e, lambda).IsOne()) key.e += BigUInt{2};
    key.d = BigUInt::ModInverse(key.e, lambda);
    return key;
  }
}

BigUInt RsaPublic(const RsaKeyPair& key, const BigUInt& m,
                  std::string_view engine) {
  if (m >= key.n) throw std::invalid_argument("RsaPublic: message >= modulus");
  return core::MakeEngine(engine, key.n)->ModExp(m, key.e);
}

BigUInt RsaPrivate(const RsaKeyPair& key, const BigUInt& c,
                   std::string_view engine) {
  if (c >= key.n) throw std::invalid_argument("RsaPrivate: input >= modulus");
  return core::MakeEngine(engine, key.n)->ModExp(c, key.d);
}

namespace {

// The base-blinding step itself: c -> c * r^e mod n.
BigUInt BlindBaseWith(const BigUInt& c, const BigUInt& e, const BigUInt& n,
                      const core::MmmEngine& engine,
                      const RsaBlindingUnit& unit) {
  return (c * engine.ModExp(unit.r, e)) % n;
}

}  // namespace

RsaBlindingUnit MakeRsaBlindingUnit(const BigUInt& n,
                                    bignum::RandomBigUInt& rng) {
  // Random candidates below n are almost never non-units for RSA moduli,
  // so the rejection loop is effectively one draw.
  for (;;) {
    BigUInt r = rng.Below(n);
    if (r <= BigUInt{1}) continue;
    if (!BigUInt::Gcd(r, n).IsOne()) continue;
    BigUInt r_inv = BigUInt::ModInverse(r, n);
    return {std::move(r), std::move(r_inv)};
  }
}

BigUInt BlindRsaBase(const BigUInt& c, const BigUInt& e, const BigUInt& n,
                     bignum::RandomBigUInt& rng) {
  return BlindBaseWith(c, e, n, *core::MakeEngine("word-mont", n),
                       MakeRsaBlindingUnit(n, rng));
}

BigUInt RsaLambda(const RsaKeyPair& key) {
  if (key.p * key.q != key.n) {
    throw std::invalid_argument("RsaLambda: p*q != n");
  }
  const BigUInt p1 = key.p - BigUInt{1};
  const BigUInt q1 = key.q - BigUInt{1};
  return (p1 * q1) / BigUInt::Gcd(p1, q1);
}

RsaCrtContext::RsaCrtContext(RsaKeyPair key, std::string_view engine)
    : key_(std::move(key)) {
  // A CRT key assembled by hand (rather than by GenerateRsaKey) can carry
  // p == q or p*q != n; Garner recombination then returns a well-formed
  // number that is simply the wrong plaintext.  Reject loudly instead.
  const BigUInt one{1};
  if (key_.p <= one || key_.q <= one) {
    throw std::invalid_argument("RsaCrtContext: p and q must be > 1");
  }
  if (key_.p == key_.q) {
    throw std::invalid_argument("RsaCrtContext: p == q (not a valid CRT key)");
  }
  if (key_.p * key_.q != key_.n) {
    throw std::invalid_argument("RsaCrtContext: p*q != n");
  }
  try {
    q_inv_ = BigUInt::ModInverse(key_.q % key_.p, key_.p);
  } catch (const std::domain_error&) {
    throw std::invalid_argument("RsaCrtContext: q has no inverse mod p");
  }
  dp_ = key_.d % (key_.p - one);
  dq_ = key_.d % (key_.q - one);
  engine_p_ = core::MakeEngine(engine, key_.p);
  engine_q_ = core::MakeEngine(engine, key_.q);
  // The Bellcore check is one cheap public exponentiation (e is small).
  verify_engine_ = core::MakeEngine("word-mont", key_.n);
}

BigUInt RsaCrtContext::Sign(const BigUInt& c, core::EngineStats* stats,
                            bignum::RandomBigUInt* blind_rng,
                            const RsaBlindingOptions& blinding) const {
  if (c >= key_.n) {
    throw std::invalid_argument("RsaCrtContext::Sign: input >= modulus");
  }
  const bool blind_base = blind_rng != nullptr && blinding.blind_base;
  BigUInt input = c;
  RsaBlindingUnit unit;
  if (blind_base) {
    // Blind once mod n, before the CRT split, so *both* half-
    // exponentiations run on residues of the blinded value.
    unit = MakeRsaBlindingUnit(key_.n, *blind_rng);
    input = BlindBaseWith(input, key_.e, key_.n, *verify_engine_, unit);
  }
  BigUInt dp = dp_;
  BigUInt dq = dq_;
  if (blind_rng != nullptr && blinding.exponent_blind_bits > 0) {
    // d + k*(p-1) per half, with k's top bit forced so the exponent
    // really is randomized.
    const BigUInt one{1};
    dp += blind_rng->ExactBits(blinding.exponent_blind_bits) * (key_.p - one);
    dq += blind_rng->ExactBits(blinding.exponent_blind_bits) * (key_.q - one);
  }
  BigUInt mp, mq;
  if (engine_p_->l() == engine_q_->l() && engine_p_->Caps().pairable_streams) {
    // The two half-exponentiations share the array: p on channel A, q on
    // channel B of one dual-modulus interleaved multiplier.
    core::PairedExpResult paired = core::PairedModExp(
        *engine_p_, input % key_.p, dp, *engine_q_, input % key_.q, dq);
    mp = std::move(paired.a);
    mq = std::move(paired.b);
    if (stats != nullptr) *stats = paired.stats;
  } else {
    // Unequal prime lengths, or a backend without pairable streams,
    // cannot share cells; issue sequentially.
    core::EngineStats stats_p, stats_q;
    mp = engine_p_->ModExp(input % key_.p, dp, &stats_p);
    mq = engine_q_->ModExp(input % key_.q, dq, &stats_q);
    if (stats != nullptr) {
      *stats = {};
      stats->single_issues =
          stats_p.mmm_invocations + stats_q.mmm_invocations;
      stats->engine_cycles = stats_p.engine_cycles + stats_q.engine_cycles;
    }
  }
  BigUInt sig = RsaCrtRecombine(key_, q_inv_, mp, mq);
  if (blind_base) sig = (sig * unit.r_inv) % key_.n;
  // Fault hygiene checks the released (unblinded) signature against the
  // original input — a fault anywhere in the pipeline is caught: a single
  // fault in one CRT half makes gcd(sig^e - c, n) a prime factor of n.
  if (!RsaCrtResultOk(*verify_engine_, key_, c, sig)) {
    throw std::runtime_error(
        "RsaCrtContext::Sign: CRT fault check failed (sig^e mod n != input); "
        "result withheld");
  }
  return sig;
}

BigUInt RsaCrtRecombine(const RsaKeyPair& key, const BigUInt& q_inv,
                        const BigUInt& mp, const BigUInt& mq) {
  // Garner: m = mq + q * (q^-1 (mp - mq) mod p).
  BigUInt diff = mp % key.p;
  const BigUInt mq_mod_p = mq % key.p;
  if (diff < mq_mod_p) diff += key.p;
  diff -= mq_mod_p;
  const BigUInt h = (q_inv * diff) % key.p;
  return mq + key.q * h;
}

bool RsaCrtResultOk(const core::MmmEngine& verify_engine,
                    const RsaKeyPair& key, const BigUInt& input,
                    const BigUInt& sig) {
  return verify_engine.ModExp(sig, key.e) == input;
}

}  // namespace mont::crypto
