// layers.cpp — the per-layer view: stage split from trace events, shares
// from the registry, and outside-in timings of each layer's public calls.
#include <algorithm>
#include <cstdint>
#include <future>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "crypto/pkcs1.hpp"
#include "crypto/rsa.hpp"
#include "harness.hpp"
#include "server/admission.hpp"
#include "server/wire.hpp"

namespace signbench {

namespace core = mont::core;
namespace crypto = mont::crypto;
namespace server = mont::server;
using mont::obs::TraceEvent;

namespace {

double Ms(std::uint64_t from, std::uint64_t to) {
  return (static_cast<double>(to) - static_cast<double>(from)) / 1e6;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Keeps timed results observable so no call is optimised away.
std::uint64_t g_sink = 0;
void Keep(const BigUInt& value) { g_sink += value.LimbAt(0); }

/// Median over `reps` repetitions of the mean time of `calls` calls, ns.
template <class Fn>
double NsPerCall(std::size_t calls, std::size_t reps, Fn&& fn) {
  std::vector<double> per_call;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint64_t start = NowNs();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(calls));
  }
  return Median(std::move(per_call));
}

BigUInt RandomBelow(const BigUInt& bound, std::mt19937_64& rng) {
  BigUInt value;
  for (std::size_t i = 0; i < bound.LimbCount() + 1; ++i) {
    value = (value << 32) + BigUInt(rng() & 0xffffffffu);
  }
  return value % bound;
}

/// Bit-serial Multiply per call (µs); checks the modelled cycles of every
/// product against 3l+4 and reports them through `cycles_per_mul`.
double TimeBitSerialMul(const BigUInt& modulus, std::size_t calls,
                        std::mt19937_64& rng, std::uint64_t* cycles_per_mul,
                        std::vector<std::string>* violations) {
  const auto engine = core::MakeEngine("bit-serial", modulus);
  const BigUInt x = RandomBelow(modulus, rng);
  const BigUInt y = RandomBelow(modulus, rng);
  std::uint64_t cycles = 0;
  std::uint64_t multiplies = 0;
  const double ns = NsPerCall(calls, 11, [&] {
    Keep(engine->Multiply(x, y, &cycles));
    ++multiplies;
  });
  if (cycles_per_mul != nullptr) *cycles_per_mul = cycles / multiplies;
  const std::uint64_t model = 3 * engine->l() + 4;
  if (cycles != model * multiplies) {
    violations->push_back("bit-serial l=" + std::to_string(engine->l()) +
                          " charged " + std::to_string(cycles) + " cycles for " +
                          std::to_string(multiplies) + " products, not 3l+4 each");
  }
  return ns / 1e3;
}

/// One CRT half on the bit-serial engine (ms): em mod p raised to d mod p-1.
double TimeBitSerialHalf(const RsaKeyPair& key, std::size_t reps,
                         std::mt19937_64& rng) {
  const auto engine = core::MakeEngine("bit-serial", key.p);
  const BigUInt exponent = key.d % (key.p - BigUInt(1));
  const BigUInt base = RandomBelow(key.p, rng);
  return NsPerCall(1, reps, [&] { Keep(engine->ModExp(base, exponent)); }) /
         1e6;
}

}  // namespace

// --- stage split from trace events ----------------------------------------

double SigningStages::UnexplainedFrac() const {
  const double explained = ingress + queue + run + join + continuation +
                           recombine + respond + egress;
  return (e2e - explained) / e2e;
}

SigningStages ComputeSigningStages(const std::vector<TraceEvent>& events) {
  struct RequestTrace {
    std::uint64_t sent = 0, received = 0, admit = 0, join = 0;
    std::uint64_t recombine_start = 0, recombine_end = 0;
    std::uint64_t release = 0, respond = 0;
    int attempts = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;  // [start, end)
  };
  std::unordered_map<std::uint64_t, RequestTrace> traces;
  std::vector<double> all_runs;
  for (const TraceEvent& e : events) {
    const std::string_view name = e.name;
    if (name == "bench.request") {
      traces[e.id].sent = e.ts;
      traces[e.id].received = e.ts + e.dur;
    } else if (name == "bench.respond") {
      traces[e.id].respond = e.ts;
    } else if (name == "server.admit") {
      traces[e.id].admit = e.ts;
    } else if (name == "crt.submit_halves") {
      ++traces[e.id].attempts;
    } else if (name == "job.run") {
      traces[e.id].runs.emplace_back(e.ts, e.ts + e.dur);
      all_runs.push_back(static_cast<double>(e.dur) / 1e6);
    } else if (name == "crt.join") {
      traces[e.id].join = e.ts;
    } else if (name == "crt.recombine") {
      traces[e.id].recombine_start = e.ts;
      traces[e.id].recombine_end = e.ts + e.dur;
    } else if (name == "server.release") {
      traces[e.id].release = e.ts;
    }
  }

  std::vector<double> e2e, ingress, queue, run, join, continuation, recombine,
      respond, egress;
  for (auto& [id, t] : traces) {
    if (t.sent == 0 || t.received == 0 || t.admit == 0 || t.join == 0 ||
        t.recombine_start == 0 || t.release == 0 || t.respond == 0 ||
        t.attempts != 1 || t.runs.size() != 2) {
      continue;  // cut by the ring or a tracing phase, or retried
    }
    std::sort(t.runs.begin(), t.runs.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    e2e.push_back(Ms(t.sent, t.received));
    ingress.push_back(Ms(t.sent, t.admit));
    queue.push_back(
        Ms(t.admit, std::min(t.runs[0].first, t.runs[1].first)));
    run.push_back(Ms(t.runs[0].first, t.runs[0].second));
    join.push_back(Ms(t.runs[0].second, t.runs[1].second));
    continuation.push_back(Ms(t.join, t.recombine_start));
    recombine.push_back(Ms(t.recombine_start, t.recombine_end));
    respond.push_back(Ms(t.release, t.respond));
    egress.push_back(Ms(t.respond, t.received));
  }
  SigningStages stages;
  stages.requests = e2e.size();
  stages.e2e = Median(std::move(e2e));
  stages.ingress = Median(std::move(ingress));
  stages.queue = Median(std::move(queue));
  stages.run = Median(std::move(run));
  stages.join = Median(std::move(join));
  stages.continuation = Median(std::move(continuation));
  stages.recombine = Median(std::move(recombine));
  stages.respond = Median(std::move(respond));
  stages.egress = Median(std::move(egress));
  stages.all_runs = Median(std::move(all_runs));
  return stages;
}

JobStages ComputeJobStages(const std::vector<TraceEvent>& events) {
  std::unordered_map<std::uint64_t, std::uint64_t> submitted;
  std::vector<double> queue, run;
  for (const TraceEvent& e : events) {
    const std::string_view name = e.name;
    if (name == "job.submit") {
      submitted[e.id] = e.ts;
    } else if (name == "job.run") {
      run.push_back(static_cast<double>(e.dur) / 1e6);
      const auto it = submitted.find(e.id);
      if (it != submitted.end()) queue.push_back(Ms(it->second, e.ts));
    }
  }
  JobStages stages;
  stages.jobs = queue.size();
  stages.queue = Median(std::move(queue));
  stages.run = Median(std::move(run));
  return stages;
}

// --- registry shares ------------------------------------------------------

void AddSchedulerShares(const mont::obs::MetricsSnapshot& s, MetricList* out) {
  const double jobs = static_cast<double>(s.CounterValue("jobs.completed"));
  const auto per_kjob = [&](const char* counter) {
    return static_cast<double>(s.CounterValue(counter)) * 1e3 / jobs;
  };
  const double hits = static_cast<double>(s.CounterValue("engine.cache_hits"));
  const double misses =
      static_cast<double>(s.CounterValue("engine.cache_misses"));
  out->push_back(
      {"exp.paired_share",
       2.0 * static_cast<double>(s.CounterValue("issues.paired")) / jobs,
       "frac"});
  out->push_back({"exp.steals_per_kjob", per_kjob("sched.steals"), "1/kjob"});
  out->push_back({"exp.holds_per_kjob", per_kjob("sched.holds"), "1/kjob"});
  out->push_back({"exp.unpair_timeouts_per_kjob",
                  per_kjob("sched.unpair_timeouts"), "1/kjob"});
  out->push_back({"exp.cache_miss_share", misses / (hits + misses), "frac"});
}

// --- outside-in layer timings ---------------------------------------------

void AddLayerTimings(const Inputs& inputs, const RsaKeyPair& sign_key,
                     MetricList* out, std::vector<std::string>* violations) {
  std::mt19937_64 rng(0x5157);

  // core/engine: the kernel at the CRT-half sizes of both key sizes.
  std::uint64_t cycles256 = 0;
  out->push_back({"engine.bit-serial.mul256_us",
                  TimeBitSerialMul(inputs.rsa512[0].p, 200, rng, &cycles256,
                                   violations),
                  "us"});
  out->push_back({"engine.bit-serial.mul512_us",
                  TimeBitSerialMul(inputs.rsa1024.p, 60, rng, nullptr,
                                   violations),
                  "us"});
  {
    const BigUInt& modulus = inputs.moduli64[0];
    const auto engine = core::MakeEngine("word-mont", modulus);
    const BigUInt x = RandomBelow(modulus, rng);
    const BigUInt y = RandomBelow(modulus, rng);
    out->push_back({"engine.word-mont.mul64_us",
                    NsPerCall(5000, 11, [&] { Keep(engine->Multiply(x, y)); }) /
                        1e3,
                    "us"});
  }
  out->push_back({"engine.bit-serial.modexp256_ms",
                  TimeBitSerialHalf(inputs.rsa512[0], 9, rng), "ms"});
  out->push_back({"engine.bit-serial.modexp512_ms",
                  TimeBitSerialHalf(inputs.rsa1024, 5, rng), "ms"});
  out->push_back({"engine.model_cycles_per_mul",
                  static_cast<double>(cycles256), "cycles"});

  // core/exp_service: one trivial job at depth 1, less the same job run
  // standalone on its engine — the service's own per-job cost.
  {
    const BigUInt& modulus = inputs.moduli64[0];
    const BigUInt base = RandomBelow(modulus, rng);
    const BigUInt exponent(3);
    const auto engine = core::MakeEngine("word-mont", modulus);
    const double standalone_ns =
        NsPerCall(5000, 11, [&] { Keep(engine->ModExp(base, exponent)); });
    core::ExpService::Options options;
    options.engine_name = "word-mont";
    core::ExpService service(options);
    Keep(service.Submit(modulus, base, exponent).get().value);  // warm cache
    const double roundtrip_ns = NsPerCall(500, 11, [&] {
      Keep(service.Submit(modulus, base, exponent).get().value);
    });
    out->push_back({"exp.job_roundtrip_us",
                    (roundtrip_ns - standalone_ns) / 1e3, "us"});
  }

  // crypto: PKCS#1 encoding, Garner, and the Bellcore gate at the
  // workload's key size.
  const std::size_t modulus_bytes = (sign_key.n.BitLength() + 7) / 8;
  std::vector<std::uint8_t> message(64);
  for (std::uint8_t& byte : message) byte = static_cast<std::uint8_t>(rng());
  const BigUInt em = crypto::EmsaPkcs1V15Encode(message, modulus_bytes);
  out->push_back({"crypto.emsa_us", NsPerCall(1000, 11, [&] {
                    Keep(crypto::EmsaPkcs1V15Encode(message, modulus_bytes));
                  }) / 1e3,
                  "us"});
  const BigUInt one(1);
  const BigUInt q_inv = BigUInt::ModInverse(sign_key.q % sign_key.p, sign_key.p);
  const BigUInt mp = BigUInt::ModExp(em % sign_key.p,
                                     sign_key.d % (sign_key.p - one), sign_key.p);
  const BigUInt mq = BigUInt::ModExp(em % sign_key.q,
                                     sign_key.d % (sign_key.q - one), sign_key.q);
  const BigUInt signature = crypto::RsaCrtRecombine(sign_key, q_inv, mp, mq);
  out->push_back({"crypto.garner_us", NsPerCall(1000, 11, [&] {
                    Keep(crypto::RsaCrtRecombine(sign_key, q_inv, mp, mq));
                  }) / 1e3,
                  "us"});
  const auto verify_engine = core::MakeEngine("word-mont", sign_key.n);
  bool bellcore_ok = true;
  out->push_back({"crypto.bellcore_verify_us", NsPerCall(200, 11, [&] {
                    bellcore_ok &= crypto::RsaCrtResultOk(
                        *verify_engine, sign_key, em, signature);
                  }) / 1e3,
                  "us"});
  if (!bellcore_ok) {
    violations->push_back("RsaCrtResultOk rejected a correct CRT signature");
  }

  // server: the wire round trip of one request and its response, and one
  // admission decision with its completion.
  {
    server::SignRequest request;
    request.request_id = 1;
    request.tenant_id = 1;
    request.key_id = 1;
    request.message = message;
    server::SignResponse response;
    response.request_id = 1;
    response.payload = signature.ToBytesBE(modulus_bytes);
    server::FrameReader server_reader;
    server::FrameReader client_reader;
    bool decoded = true;
    out->push_back({"server.wire_codec_us", NsPerCall(2000, 11, [&] {
                      server_reader.Feed(
                          server::Frame(server::EncodeSignRequest(request)));
                      decoded &= server::DecodeSignRequest(
                                     *server_reader.Next())
                                     .has_value();
                      client_reader.Feed(
                          server::Frame(server::EncodeSignResponse(response)));
                      decoded &= server::DecodeSignResponse(
                                     *client_reader.Next())
                                     .has_value();
                    }) / 1e3,
                    "us"});
    if (!decoded) violations->push_back("wire codec failed to round-trip");
  }
  {
    server::AdmissionController admission(server::AdmissionController::Config{});
    for (std::uint32_t tenant = 1; tenant <= 4; ++tenant) {
      admission.RegisterTenant(tenant, server::TenantConfig{});
    }
    std::uint32_t tenant = 0;
    bool admitted = true;
    out->push_back({"server.admit_us", NsPerCall(20000, 11, [&] {
                      tenant = tenant % 4 + 1;
                      admitted &= admission.Admit(tenant, NowNs()).admitted;
                      admission.OnComplete(tenant);
                    }) / 1e3,
                    "us"});
    if (!admitted) violations->push_back("admission refused an idle tenant");
  }
}

}  // namespace signbench
