// exp_server — the signing service front-end, end to end.
//
// One server::SigningService (multi-tenant keystore, token-bucket
// admission, priority shedding, deadlines, Bellcore-gated CRT signing
// over core::ExpService) is driven three ways:
//
//   ./exp_server             demo: two tenants — one polite, one
//                            flooding — push PKCS#1 v1.5 sign requests
//                            through the full wire codec; the run ends
//                            with the service scorecard (verified
//                            signatures, typed backpressure/shed counts,
//                            conservation of the job-level counters).
//   ./exp_server --smoke     bounded self-test for ctest: one tenant,
//                            one signature signed through the retrying
//                            client and verified against the public key,
//                            plus one oversize frame rejected at the
//                            transport with FRAME_TOO_LARGE.  Exits
//                            nonzero on any failure.
//   ./exp_server --tcp PORT  thin TCP adapter (POSIX sockets): accepts
//                            connections, splits each byte stream with
//                            the same FrameReader the in-proc transport
//                            uses, answers each frame through
//                            HandleRequestSync (including the STATS verb
//                            — the metrics registry as JSON), and closes
//                            the connection on an oversize prefix after
//                            answering FRAME_TOO_LARGE.  Serves until
//                            killed, printing a one-line ops summary
//                            (goodput, shed %, p95 latency) to stderr
//                            every few seconds.
//
// `--trace-out FILE` (any mode) attaches an obs::Tracer to the service
// and writes the captured job-lifecycle trace as chrome://tracing JSON
// on exit — load it in https://ui.perfetto.dev.
//
// The adapter is deliberately thin: framing, the oversize check and the
// status taxonomy all live in src/server/ and are identical between the
// socket path and the in-process path the tests and bench exercise.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bignum/random.hpp"
#include "crypto/pkcs1.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/client.hpp"
#include "server/keystore.hpp"
#include "server/signing_service.hpp"
#include "server/transport.hpp"
#include "server/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MONT_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

using mont::bignum::BigUInt;
namespace server = mont::server;

namespace {

server::Keystore DemoKeystore(mont::crypto::RsaKeyPair* out_key) {
  // Deterministic 512-bit demo key: smallest modulus PKCS#1/SHA-256
  // allows, so keygen and signing stay fast enough for a smoke test.
  mont::bignum::RandomBigUInt rng(0x5e12f1ceull);
  *out_key = mont::crypto::GenerateRsaKey(512, rng);

  server::Keystore keystore;
  server::TenantConfig polite;
  polite.name = "polite";
  polite.priority = 12;
  polite.burst = 64;
  keystore.AddTenant(1, polite);
  keystore.AddKey(1, 1, *out_key);

  server::TenantConfig flood;
  flood.name = "flood";
  flood.priority = 2;   // shed first under overload
  flood.burst = 8;      // tight token bucket: excess gets backpressure
  flood.refill_period_ticks = 1'000'000'000;  // 1 token/s — exhausts fast
  flood.max_in_flight = 8;
  keystore.AddTenant(2, flood);
  keystore.AddKey(2, 1, *out_key);
  return keystore;
}

int RunSmoke(mont::obs::Tracer* tracer) {
  mont::crypto::RsaKeyPair key;
  server::Keystore keystore = DemoKeystore(&key);
  server::SigningService::Options options;
  options.service.tracer = tracer;
  server::SigningService service(std::move(keystore), options);
  server::InProcTransport transport(service);
  server::SigningClient client(transport);

  // 1. One signature through the full wire path, verified against the
  //    public key.
  const std::vector<std::uint8_t> message = {'s', 'm', 'o', 'k', 'e'};
  const server::SigningClient::Outcome outcome =
      client.Sign(/*tenant_id=*/1, /*key_id=*/1, message);
  if (outcome.status != server::StatusCode::kOk) {
    std::fprintf(stderr, "smoke: sign failed with %s\n",
                 server::StatusCodeName(outcome.status));
    return 1;
  }
  const BigUInt signature = BigUInt::FromBytesBE(outcome.signature);
  if (!mont::crypto::RsaVerifyPkcs1V15(key, message, signature)) {
    std::fprintf(stderr, "smoke: signature did not verify\n");
    return 1;
  }

  // 2. An oversize length prefix must be rejected at the transport with
  //    the typed code, without ever reaching the service.
  std::vector<std::uint8_t> oversize = {0xff, 0xff, 0xff, 0x7f};
  auto rejected = transport.CallRaw(std::move(oversize)).get();
  if (!rejected.has_value() ||
      rejected->status != server::StatusCode::kFrameTooLarge) {
    std::fprintf(stderr, "smoke: oversize frame not rejected as "
                         "FRAME_TOO_LARGE\n");
    return 1;
  }
  // 3. The STATS verb answers with the metrics registry as JSON.
  server::SignRequest stats;
  stats.type = server::RequestType::kStats;
  stats.request_id = 77;
  const server::SignResponse stats_response =
      service.HandleRequestSync(server::EncodeSignRequest(stats));
  const std::string stats_json(stats_response.payload.begin(),
                               stats_response.payload.end());
  if (stats_response.status != server::StatusCode::kOk ||
      stats_response.request_id != 77 ||
      stats_json.find("\"server.ok\"") == std::string::npos) {
    std::fprintf(stderr, "smoke: STATS verb did not return metrics JSON\n");
    return 1;
  }
  service.Wait();
  std::printf("smoke OK: 1 verified signature, oversize frame rejected, "
              "STATS served\n");
  return 0;
}

int RunDemo(std::size_t requests, mont::obs::Tracer* tracer) {
  std::printf("=== exp_server: multi-tenant RSA signing service ===\n\n");
  mont::crypto::RsaKeyPair key;
  server::Keystore keystore = DemoKeystore(&key);

  server::SigningService::Options options;
  options.service.workers = 2;
  options.service.tracer = tracer;
  options.admission.queue_high_watermark = 8;
  server::SigningService service(std::move(keystore), options);
  server::InProcTransport transport(service);
  server::SigningClient polite(transport);
  server::RetryPolicy no_retry;
  no_retry.max_attempts = 1;  // the flooder takes its typed refusals
  server::SigningClient flooder(transport, no_retry);

  std::printf("tenant 1 (polite, prio 12) and tenant 2 (flood, prio 2, "
              "8-token bucket)\nsubmitting %zu requests each ...\n",
              requests);
  std::size_t polite_ok = 0, flood_ok = 0, verify_failures = 0;
  std::thread polite_thread([&] {
    for (std::size_t i = 0; i < requests; ++i) {
      std::vector<std::uint8_t> message = {'p', static_cast<std::uint8_t>(i)};
      const auto outcome = polite.Sign(1, 1, message);
      if (outcome.status != server::StatusCode::kOk) continue;
      ++polite_ok;
      if (!mont::crypto::RsaVerifyPkcs1V15(
              key, message, BigUInt::FromBytesBE(outcome.signature))) {
        ++verify_failures;
      }
    }
  });
  std::thread flood_thread([&] {
    for (std::size_t i = 0; i < requests; ++i) {
      std::vector<std::uint8_t> message = {'f', static_cast<std::uint8_t>(i)};
      const auto outcome = flooder.Sign(2, 1, message);
      if (outcome.status == server::StatusCode::kOk) ++flood_ok;
    }
  });
  polite_thread.join();
  flood_thread.join();
  service.Wait();

  const mont::obs::MetricsSnapshot metrics = service.registry().Snapshot();
  const auto count = [&metrics](const char* name) {
    return static_cast<unsigned long long>(metrics.CounterValue(name));
  };
  std::printf("\n--- signing-service scorecard -----------------------\n");
  std::printf("  requests seen             %12llu\n", count("server.requests"));
  std::printf("  admitted                  %12llu\n", count("server.admitted"));
  std::printf("  signatures released (ok)  %12llu  (polite %zu, flood %zu)\n",
              count("server.ok"), polite_ok, flood_ok);
  std::printf("  backpressure (typed)      %12llu\n",
              count("server.rejected_backpressure"));
  std::printf("  shed under overload       %12llu\n",
              count("server.shed_overload"));
  std::printf("  faults caught (Bellcore)  %12llu\n",
              count("server.faults_caught"));
  std::printf("  bad signatures released   %12llu\n",
              count("server.bad_signatures_released"));
  std::printf("  CRT half-jobs submitted   %12llu  (completed %llu, "
              "cancelled %llu)\n",
              count("jobs.submitted"), count("jobs.completed"),
              count("jobs.cancelled"));
  std::printf("  signature verify failures %12zu\n", verify_failures);
  const auto latency = metrics.histograms.find("server.latency_ticks");
  if (latency != metrics.histograms.end() && latency->second.count > 0) {
    std::printf("  latency p50 / p95 (ms)    %9.2f / %.2f\n",
                static_cast<double>(latency->second.Percentile(0.5)) / 1e6,
                static_cast<double>(latency->second.Percentile(0.95)) / 1e6);
  }
  const std::vector<std::string> violations =
      service.registry().CheckInvariants(metrics);
  for (const std::string& violation : violations) {
    std::printf("  INVARIANT VIOLATED: %s\n", violation.c_str());
  }
  std::printf("\nEvery refusal above is a *typed* status a client can act "
              "on — nothing\nwas silently dropped, and no signature skipped "
              "the Bellcore gate.\n");

  // violations covers jobs.conservation (submitted == completed +
  // cancelled).
  const bool healthy_served = polite_ok > 0;
  return (verify_failures == 0 &&
          count("server.bad_signatures_released") == 0 && healthy_served &&
          violations.empty())
             ? 0
             : 1;
}

#ifdef MONT_HAVE_SOCKETS
void ServeConnection(server::SigningService& service, int fd) {
  server::FrameReader reader(service.MaxFrameBytes());
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof buffer);
    if (got <= 0) break;
    reader.Feed(std::span<const std::uint8_t>(buffer,
                                              static_cast<std::size_t>(got)));
    if (reader.OversizeError()) {
      server::SignResponse refusal;
      refusal.status = server::StatusCode::kFrameTooLarge;
      const auto frame = server::Frame(server::EncodeSignResponse(refusal));
      (void)!::write(fd, frame.data(), frame.size());
      break;  // the stream cannot be resynced — close the connection
    }
    while (auto payload = reader.Next()) {
      const server::SignResponse response =
          service.HandleRequestSync(std::move(*payload));
      const auto frame = server::Frame(server::EncodeSignResponse(response));
      if (::write(fd, frame.data(), frame.size()) < 0) break;
    }
  }
  ::close(fd);
}

// One-line ops summary every interval: goodput (signatures/s since the
// last line), refused share of all requests, and p95 admit→release
// latency — everything read from the shared metrics registry, i.e. the
// same numbers a STATS client sees.
void OpsLoop(server::SigningService& service, std::atomic<bool>& stop) {
  constexpr auto kInterval = std::chrono::seconds(2);
  std::uint64_t last_ok = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(kInterval);
    const mont::obs::MetricsSnapshot metrics = service.registry().Snapshot();
    const std::uint64_t ok = metrics.CounterValue("server.ok");
    const std::uint64_t requests = metrics.CounterValue("server.requests");
    const std::uint64_t refused =
        metrics.CounterValue("server.shed_overload") +
        metrics.CounterValue("server.rejected_backpressure");
    const double goodput =
        static_cast<double>(ok - last_ok) /
        std::chrono::duration<double>(kInterval).count();
    last_ok = ok;
    const double shed_pct =
        requests > 0
            ? 100.0 * static_cast<double>(refused) /
                  static_cast<double>(requests)
            : 0.0;
    double p95_ms = 0.0;
    const auto latency = metrics.histograms.find("server.latency_ticks");
    if (latency != metrics.histograms.end() && latency->second.count > 0) {
      p95_ms = static_cast<double>(latency->second.Percentile(0.95)) / 1e6;
    }
    std::fprintf(stderr,
                 "ops: goodput %.1f sig/s | shed %.1f%% | p95 %.2f ms | "
                 "in total: %llu ok / %llu requests\n",
                 goodput, shed_pct, p95_ms,
                 static_cast<unsigned long long>(ok),
                 static_cast<unsigned long long>(requests));
  }
}

int RunTcp(std::uint16_t port, mont::obs::Tracer* tracer) {
  mont::crypto::RsaKeyPair key;
  server::SigningService::Options options;
  options.service.tracer = tracer;
  server::SigningService service(DemoKeystore(&key), options);

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listener, 16) < 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }
  std::printf("signing service listening on 127.0.0.1:%u "
              "(tenant 1 key 1; Ctrl-C to stop)\n", port);
  std::atomic<bool> ops_stop{false};
  std::thread ops_thread(OpsLoop, std::ref(service), std::ref(ops_stop));
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    std::thread(ServeConnection, std::ref(service), fd).detach();
  }
  ops_stop.store(true, std::memory_order_relaxed);
  ops_thread.join();
  ::close(listener);
  return 0;
}
#endif  // MONT_HAVE_SOCKETS

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      args.emplace_back(argv[i]);
    }
  }
  mont::obs::Tracer tracer;
  mont::obs::Tracer* const trace_ptr = trace_out.empty() ? nullptr : &tracer;

  int rc;
  if (!args.empty() && args[0] == "--smoke") {
    rc = RunSmoke(trace_ptr);
  } else if (!args.empty() && args[0] == "--tcp") {
#ifdef MONT_HAVE_SOCKETS
    const long port =
        args.size() > 1 ? std::strtol(args[1].c_str(), nullptr, 10) : 7451;
    rc = RunTcp(static_cast<std::uint16_t>(port), trace_ptr);
#else
    std::fprintf(stderr, "--tcp requires POSIX sockets (unavailable on this "
                         "platform); use the in-proc demo instead\n");
    return 1;
#endif
  } else {
    const std::size_t requests =
        args.empty()
            ? 48
            : static_cast<std::size_t>(
                  std::strtoul(args[0].c_str(), nullptr, 10));
    rc = RunDemo(requests, trace_ptr);
  }

  if (trace_ptr != nullptr) {
    if (!tracer.WriteChromeJson(trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "trace: %zu events (%llu dropped) -> %s "
                 "(load in ui.perfetto.dev)\n",
                 tracer.EventCount(),
                 static_cast<unsigned long long>(tracer.DroppedEvents()),
                 trace_out.c_str());
  }
  return rc;
}
