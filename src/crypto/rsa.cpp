#include "crypto/rsa.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/prime.hpp"
#include "obs/trace.hpp"

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
    const BigUInt p1 = key.p - BigUInt{1};
    const BigUInt q1 = key.q - BigUInt{1};
    const BigUInt lambda = (p1 * q1) / BigUInt::Gcd(p1, q1);
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

// A CRT key assembled by hand (rather than by GenerateRsaKey) can carry
// p == q or p*q != n; Garner recombination then returns a well-formed
// number that is simply the wrong plaintext.  Reject loudly instead.
void ValidateCrtKey(const RsaKeyPair& key, const char* who) {
  if (key.p == key.q) {
    throw std::invalid_argument(std::string(who) +
                                ": p == q (not a valid CRT key)");
  }
  if (key.p * key.q != key.n) {
    throw std::invalid_argument(std::string(who) + ": p*q != n");
  }
}

// Garner recombination: m = mq + q * (q^-1 (mp - mq) mod p).  q_inv is a
// pure function of the key — callers compute it once (per batch, for
// RsaSignBatch) rather than per message.
BigUInt CrtRecombine(const RsaKeyPair& key, const BigUInt& q_inv,
                     const BigUInt& mp, const BigUInt& mq) {
  BigUInt diff = mp % key.p;
  const BigUInt mq_mod_p = mq % key.p;
  if (diff < mq_mod_p) diff += key.p;
  diff -= mq_mod_p;
  const BigUInt h = (q_inv * diff) % key.p;
  return mq + key.q * h;
}

// Bellcore/Lenstra fault hygiene: a single fault in one CRT half makes
// gcd(sig^e - c, n) a prime factor of n, so a CRT signature must never
// leave the device unverified.  The check is one cheap public
// exponentiation (e is small); `verify_engine` is a mod-n backend —
// batch callers hoist one, single-shot callers build a word-mont.
void VerifyCrtResult(const core::MmmEngine& verify_engine,
                     const RsaKeyPair& key, const BigUInt& input,
                     const BigUInt& sig, const char* who) {
  if (verify_engine.ModExp(sig, key.e) != input) {
    throw std::runtime_error(
        std::string(who) +
        ": CRT fault check failed (sig^e mod n != input); result withheld");
  }
}

void VerifyCrtResult(const RsaKeyPair& key, const BigUInt& input,
                     const BigUInt& sig, const char* who) {
  VerifyCrtResult(*core::MakeEngine("word-mont", key.n), key, input, sig, who);
}

// d + k*order for a fresh k of `bits` bits (k's top bit is forced, so the
// exponent really is randomized); bits == 0 returns d unchanged.
BigUInt BlindExponent(const BigUInt& d, const BigUInt& order,
                      std::size_t bits, bignum::RandomBigUInt& rng) {
  if (bits == 0) return d;
  return d + rng.ExactBits(bits) * order;
}

// The shared CRT core (half exponentiations + Garner recombination) —
// one copy serves the plain and blinded paths, so fault-check or
// recombination fixes cannot diverge between them.  Callers validate the
// key, choose the half exponents, and verify the released signature.
BigUInt CrtExponentiate(const RsaKeyPair& key, const BigUInt& input,
                        const BigUInt& dp, const BigUInt& dq,
                        std::string_view engine) {
  const BigUInt mp = core::MakeEngine(engine, key.p)->ModExp(input % key.p, dp);
  const BigUInt mq = core::MakeEngine(engine, key.q)->ModExp(input % key.q, dq);
  return CrtRecombine(key, BigUInt::ModInverse(key.q % key.p, key.p), mp, mq);
}

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

BigUInt RsaPrivateBlinded(const RsaKeyPair& key, const BigUInt& c,
                          bignum::RandomBigUInt& rng,
                          const RsaBlindingOptions& options,
                          std::string_view engine) {
  if (c >= key.n) {
    throw std::invalid_argument("RsaPrivateBlinded: input >= modulus");
  }
  const auto eng = core::MakeEngine(engine, key.n);
  BigUInt input = c;
  RsaBlindingUnit unit;
  if (options.blind_base) {
    unit = MakeRsaBlindingUnit(key.n, rng);
    input = BlindBaseWith(input, key.e, key.n, *eng, unit);
  }
  BigUInt d_eff = key.d;
  if (options.exponent_blind_bits > 0) {
    // Exponent randomization needs the group order, i.e. the key's
    // factorization — RsaLambda rejects keys whose p/q are not the real
    // factors instead of silently computing a wrong-order blinding.
    d_eff = BlindExponent(key.d, RsaLambda(key), options.exponent_blind_bits,
                          rng);
  }
  BigUInt m = eng->ModExp(input, d_eff);
  if (options.blind_base) m = (m * unit.r_inv) % key.n;
  return m;
}

BigUInt RsaPrivateCrtBlinded(const RsaKeyPair& key, const BigUInt& c,
                             bignum::RandomBigUInt& rng,
                             const RsaBlindingOptions& options,
                             std::string_view engine) {
  if (c >= key.n) {
    throw std::invalid_argument("RsaPrivateCrtBlinded: input >= modulus");
  }
  ValidateCrtKey(key, "RsaPrivateCrtBlinded");
  BigUInt input = c;
  RsaBlindingUnit unit;
  if (options.blind_base) {
    // Blind once mod n, before the CRT split, so *both* half-
    // exponentiations run on residues of the blinded value.
    unit = MakeRsaBlindingUnit(key.n, rng);
    input = BlindBaseWith(input, key.e, key.n,
                          *core::MakeEngine(engine, key.n), unit);
  }
  const BigUInt p1 = key.p - BigUInt{1};
  const BigUInt q1 = key.q - BigUInt{1};
  BigUInt sig = CrtExponentiate(
      key, input, BlindExponent(key.d % p1, p1, options.exponent_blind_bits, rng),
      BlindExponent(key.d % q1, q1, options.exponent_blind_bits, rng), engine);
  if (options.blind_base) sig = (sig * unit.r_inv) % key.n;
  // Fault hygiene checks the released (unblinded) signature against the
  // original input — a fault anywhere in the blinded pipeline is caught.
  VerifyCrtResult(key, c, sig, "RsaPrivateCrtBlinded");
  return sig;
}

BigUInt RsaPrivateCrt(const RsaKeyPair& key, const BigUInt& c,
                      std::string_view engine) {
  if (c >= key.n) throw std::invalid_argument("RsaPrivateCrt: input >= modulus");
  ValidateCrtKey(key, "RsaPrivateCrt");
  const BigUInt sig = CrtExponentiate(key, c, key.d % (key.p - BigUInt{1}),
                                      key.d % (key.q - BigUInt{1}), engine);
  VerifyCrtResult(key, c, sig, "RsaPrivateCrt");
  return sig;
}

BigUInt RsaPrivateCrtPaired(const RsaKeyPair& key, const BigUInt& c,
                            core::EngineStats* stats,
                            std::string_view engine) {
  if (c >= key.n) {
    throw std::invalid_argument("RsaPrivateCrtPaired: input >= modulus");
  }
  ValidateCrtKey(key, "RsaPrivateCrtPaired");
  const BigUInt dp = key.d % (key.p - BigUInt{1});
  const BigUInt dq = key.d % (key.q - BigUInt{1});
  const auto engine_p = core::MakeEngine(engine, key.p);
  const auto engine_q = core::MakeEngine(engine, key.q);
  BigUInt mp, mq;
  if (engine_p->l() == engine_q->l() && engine_p->Caps().pairable_streams) {
    // The two half-exponentiations share the array: p on channel A, q on
    // channel B of one dual-modulus interleaved multiplier.  (A backend
    // without pairable streams falls back to sequential issue below, like
    // unequal prime lengths.)
    core::PairedExpResult paired = core::PairedModExp(
        *engine_p, c % key.p, dp, *engine_q, c % key.q, dq);
    mp = std::move(paired.a);
    mq = std::move(paired.b);
    if (stats != nullptr) *stats = paired.stats;
  } else {
    // Unequal prime lengths cannot share cells; issue sequentially.
    core::EngineStats stats_p, stats_q;
    mp = engine_p->ModExp(c % key.p, dp, &stats_p);
    mq = engine_q->ModExp(c % key.q, dq, &stats_q);
    if (stats != nullptr) {
      *stats = {};
      stats->single_issues =
          stats_p.mmm_invocations + stats_q.mmm_invocations;
      stats->engine_cycles = stats_p.engine_cycles + stats_q.engine_cycles;
    }
  }
  const BigUInt sig =
      CrtRecombine(key, BigUInt::ModInverse(key.q % key.p, key.p), mp, mq);
  VerifyCrtResult(key, c, sig, "RsaPrivateCrtPaired");
  return sig;
}

std::vector<BigUInt> RsaSignBatch(const RsaKeyPair& key,
                                  std::span<const BigUInt> messages,
                                  core::ExpService& service) {
  // A GF(2^m)-configured service would accept p and q as "field
  // polynomials" (any odd prime has f(0) = 1) and compute carry-less
  // nonsense that the fault check would then misreport as a fault.
  if (service.options().engine_options.field != core::EngineField::kGfP) {
    throw std::invalid_argument(
        "RsaSignBatch: the service must run a GF(p) engine");
  }
  ValidateCrtKey(key, "RsaSignBatch");
  // Fail fast before any pair is queued: a bad message mid-span must not
  // leave earlier jobs burning worker time for futures nobody will read.
  for (const BigUInt& message : messages) {
    if (message >= key.n) {
      throw std::invalid_argument("RsaSignBatch: message >= modulus");
    }
  }
  const BigUInt dp = key.d % (key.p - BigUInt{1});
  const BigUInt dq = key.d % (key.q - BigUInt{1});

  // When the service carries a tracer, the whole batch gets an rsa.batch
  // span and each message's recombination an rsa.recombine instant; the
  // half-jobs take message-index trace ids so their job.run spans
  // correlate across the p/q halves.
  obs::Tracer* const tracer = service.options().tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  const std::uint64_t batch_start = tracing ? obs::Tracer::NowTicks() : 0;

  // Pipelined CRT: the p- and q-halves go in as *independent* jobs, so
  // each half completes on its own (the scheduler pairs equal-length
  // halves opportunistically — same message or across messages; they
  // enter the queue together, so an idle worker cannot take the p-half
  // alone before its q-half is queued) and the second-arriving half posts
  // Garner recombination + the Bellcore/Lenstra fault check to the
  // service's continuation thread.
  // No worker array ever stalls on recombination, and a slow q-half
  // can't block the next message's p-half from issuing.
  //
  // Everything a callback/continuation touches is owned by shared state
  // (no references into this frame): if a Submit throws mid-batch, the
  // in-flight halves of earlier messages still complete safely.
  struct BatchContext {
    RsaKeyPair key;
    BigUInt q_inv;
    std::shared_ptr<const core::MmmEngine> verify_engine;
  };
  struct MessageState {
    BigUInt message;
    BigUInt mp, mq;
    std::atomic<int> remaining{2};
    std::promise<BigUInt> signature;
  };
  auto context = std::make_shared<BatchContext>();
  context->key = key;
  context->q_inv = BigUInt::ModInverse(key.q % key.p, key.p);
  context->verify_engine = core::MakeEngine("word-mont", key.n);

  std::vector<std::pair<std::future<core::ExpService::Result>,
                        std::future<core::ExpService::Result>>>
      halves;
  std::vector<std::future<BigUInt>> recombined;
  halves.reserve(messages.size());
  recombined.reserve(messages.size());
  for (std::size_t index = 0; index < messages.size(); ++index) {
    const BigUInt& message = messages[index];
    auto state = std::make_shared<MessageState>();
    state->message = message;
    recombined.push_back(state->signature.get_future());
    const std::uint64_t trace_id = static_cast<std::uint64_t>(index) + 1;
    // Whichever half lands second owns the continuation handoff.  The
    // acq_rel decrement makes both halves' writes visible to it (and,
    // through the continuation queue, to the recombining thread).
    const auto finish_half = [&service, context, state, tracer, trace_id] {
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return;
      }
      service.Post([context, state, tracer, trace_id] {
        try {
          BigUInt sig = CrtRecombine(context->key, context->q_inv, state->mp,
                                     state->mq);
          VerifyCrtResult(*context->verify_engine, context->key,
                          state->message, sig, "RsaSignBatch");
          if (tracer != nullptr && tracer->enabled()) {
            tracer->Instant("rsa.recombine", trace_id, 0,
                            obs::Tracer::NowTicks());
          }
          state->signature.set_value(std::move(sig));
        } catch (...) {
          state->signature.set_exception(std::current_exception());
        }
      });
    };
    core::ExpJobOptions job_options;
    job_options.trace_id = trace_id;
    halves.push_back(service.SubmitTogether(
        key.p, message % key.p, dp,
        [state, finish_half](const core::ExpService::Result& result) {
          state->mp = result.value;
          finish_half();
        },
        key.q, message % key.q, dq,
        [state, finish_half](const core::ExpService::Result& result) {
          state->mq = result.value;
          finish_half();
        },
        job_options));
  }
  // Half futures resolve unconditionally (value or exception), so they
  // are waited first — a failed half means its callback never ran and
  // the recombination future would never materialise.
  for (auto& pair : halves) {
    pair.first.get();
    pair.second.get();
  }
  std::vector<BigUInt> signatures;
  signatures.reserve(messages.size());
  for (auto& future : recombined) signatures.push_back(future.get());
  if (tracing) {
    tracer->Complete(
        "rsa.batch", 0, 0, batch_start, obs::Tracer::NowTicks(),
        {{"messages", static_cast<std::uint64_t>(messages.size())}});
  }
  return signatures;
}

BigUInt RsaCrtRecombine(const RsaKeyPair& key, const BigUInt& q_inv,
                        const BigUInt& mp, const BigUInt& mq) {
  return CrtRecombine(key, q_inv, mp, mq);
}

bool RsaCrtResultOk(const core::MmmEngine& verify_engine,
                    const RsaKeyPair& key, const BigUInt& input,
                    const BigUInt& sig) {
  return verify_engine.ModExp(sig, key.e) == input;
}

}  // namespace mont::crypto
