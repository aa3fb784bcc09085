// bench_server — the signing-service front-end under load: goodput
// versus offered load, shed fraction, and latency percentiles.
//
// Four sections:
//
//   * admission_model — single-threaded, so the token-bucket arithmetic
//     is exact: a tenant with an 8-token burst and an (effectively)
//     never-refilling bucket offered 24 sequential requests yields
//     exactly 8 signatures and 16 typed BACKPRESSURE refusals.  These
//     counts are model-derived and drift-gated strictly.
//   * deadline_model — every request carries a 1-tick relative deadline
//     (the service clock is nanoseconds), so all of them are cancelled
//     at claim time: DEADLINE_EXCEEDED responses and the job-level
//     cancelled counter are exact.
//   * sweep — closed-loop load generator: in one round, T client threads
//     (T doubling per level) each push K requests through the full wire
//     codec with no retries.  Each level has its own service and repeats
//     its round for at least kSlices x kSliceSeconds of wall time, in
//     slices that alternate with the other levels' slices, so a burst of
//     host load lands on every level alike.  The row's `offered` is one
//     round (T x K); the window keeps a level from being judged on a few
//     milliseconds of wall time now that a signature takes well under
//     one.  Reported goodput (verified signatures/sec), offered rate,
//     shed fraction and p50/p95/p99 latency are host-throughput
//     measurements: the JSON keys carry wall/per_sec markers so
//     bench_drift_check tracks the row identity strictly but skips the
//     host-dependent numbers.  The tenant allows 2 x workers requests in
//     flight, so past that many threads the excess is refused with typed
//     BACKPRESSURE: that refusal path is the overload under test, and
//     goodput counts verified signatures only.
//   * engine_goodput — one more closed-loop level at T = workers, the
//     same as the sweep's, on a service whose exponentiations run on
//     "alg2-ref" (the Algorithm-2 bit loop the word-level kernel
//     replaced).  Its slices alternate with the sweep's, and the row
//     reports bit-serial goodput over alg2-ref goodput at that level.
//
// The bench gates itself: goodput past saturation must not collapse
// (highest-load goodput >= 50% of peak goodput), the bit-serial level
// must sign at least kMinKernelGoodputRatio x as fast as the alg2-ref
// level, no bad signature may ever be released, and the job-level
// counters must conserve.  Any violation exits nonzero, so `ctest -L
// perf` catches an overload or kernel regression without needing a
// calibrated host: both gates are ratios measured in one process.
//
// Writes BENCH_server.json (bench_json.hpp); --smoke bounds the sweep
// for the ctest `perf` label.  `--trace-out FILE` attaches an
// obs::Tracer to the sweep's services and dumps the request-lifecycle
// trace as chrome://tracing JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "bignum/random.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/client.hpp"
#include "server/keystore.hpp"
#include "server/signing_service.hpp"
#include "server/transport.hpp"
#include "server/wire.hpp"

namespace {

namespace server = mont::server;
using Clock = std::chrono::steady_clock;

// Far beyond any run's duration: the bucket never refills mid-bench.
constexpr std::uint64_t kNeverRefillTicks = 3'600'000'000'000ull;

// Each sweep level runs kSlices slices, each repeating its closed-loop
// round until kSliceSeconds have passed: at least 100 ms per level.
constexpr int kSlices = 4;
constexpr double kSliceSeconds = 0.025;

// The word-level kernel's end-to-end payoff: at one load level, goodput
// on "bit-serial" over goodput on "alg2-ref".
constexpr double kMinKernelGoodputRatio = 10.0;

const mont::crypto::RsaKeyPair& BenchKey() {
  static const mont::crypto::RsaKeyPair key = [] {
    mont::bignum::RandomBigUInt rng(0xbe9c45e12ull);
    return mont::crypto::GenerateRsaKey(512, rng);
  }();
  return key;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// --- admission_model: exact token-bucket outcome ---------------------------

mont::bench::JsonRow AdmissionModelRow() {
  server::Keystore keystore;
  server::TenantConfig tenant;
  tenant.name = "bucketed";
  tenant.burst = 8;
  tenant.refill_period_ticks = kNeverRefillTicks;
  keystore.AddTenant(1, tenant);
  keystore.AddKey(1, 1, BenchKey());
  server::SigningService service(std::move(keystore));
  server::InProcTransport transport(service);

  const std::size_t offered = 24;
  std::size_t ok = 0, backpressure = 0;
  for (std::size_t i = 0; i < offered; ++i) {
    server::SignRequest request;
    request.request_id = i + 1;
    request.tenant_id = 1;
    request.key_id = 1;
    request.message = {'a', static_cast<std::uint8_t>(i)};
    const auto response = transport.Call(request).get();
    if (!response) continue;
    if (response->status == server::StatusCode::kOk) ++ok;
    if (response->status == server::StatusCode::kRejectedBackpressure) {
      ++backpressure;
    }
  }
  service.Wait();
  std::printf("admission_model: %zu offered -> %zu ok, %zu backpressure\n",
              offered, ok, backpressure);
  return {{"stage", "admission_model"},
          {"offered", static_cast<unsigned long long>(offered)},
          {"ok", static_cast<unsigned long long>(ok)},
          {"backpressure", static_cast<unsigned long long>(backpressure)},
          {"backpressure_fraction",
           static_cast<double>(backpressure) / static_cast<double>(offered)}};
}

// --- deadline_model: every request expires before dispatch -----------------

mont::bench::JsonRow DeadlineModelRow() {
  server::Keystore keystore;
  server::TenantConfig tenant;
  tenant.name = "deadlined";
  keystore.AddTenant(1, tenant);
  keystore.AddKey(1, 1, BenchKey());
  server::SigningService service(std::move(keystore));
  server::InProcTransport transport(service);

  const std::size_t offered = 8;
  std::size_t deadline_exceeded = 0;
  for (std::size_t i = 0; i < offered; ++i) {
    server::SignRequest request;
    request.request_id = i + 1;
    request.tenant_id = 1;
    request.key_id = 1;
    request.deadline_ticks = 1;  // expired by the time a worker claims it
    request.message = {'d', static_cast<std::uint8_t>(i)};
    const auto response = transport.Call(request).get();
    if (response &&
        response->status == server::StatusCode::kDeadlineExceeded) {
      ++deadline_exceeded;
    }
  }
  service.Wait();
  const std::uint64_t jobs_cancelled =
      service.registry().Snapshot().CounterValue("jobs.cancelled");
  std::printf("deadline_model: %zu offered -> %zu DEADLINE_EXCEEDED "
              "(%llu jobs cancelled in-scheduler)\n",
              offered, deadline_exceeded,
              static_cast<unsigned long long>(jobs_cancelled));
  return {{"stage", "deadline_model"},
          {"offered", static_cast<unsigned long long>(offered)},
          {"deadline_exceeded",
           static_cast<unsigned long long>(deadline_exceeded)},
          {"jobs_cancelled", static_cast<unsigned long long>(jobs_cancelled)}};
}

// --- sweep: closed-loop goodput vs offered load ----------------------------

struct SweepPoint {
  std::size_t threads = 0;
  std::size_t offered = 0;  // one round: threads x requests per thread
  std::size_t sent = 0;     // all rounds of the level
  std::size_t ok = 0;
  std::size_t refused = 0;  // typed backpressure/shed
  double wall_seconds = 0;
  double goodput_per_sec = 0;
  double offered_per_sec = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
};

server::Keystore LoadKeystore(std::size_t workers) {
  server::Keystore keystore;
  server::TenantConfig tenant;
  tenant.name = "load";
  tenant.burst = 1u << 20;  // the bucket is not the bottleneck here
  tenant.max_in_flight = 2 * workers;
  keystore.AddTenant(1, tenant);
  keystore.AddKey(1, 1, BenchKey());
  return keystore;
}

server::SigningService::Options LoadOptions(std::size_t workers,
                                            const char* engine,
                                            mont::obs::Tracer* tracer) {
  server::SigningService::Options options;
  options.service.workers = workers;
  options.service.engine_name = engine;
  options.service.tracer = tracer;
  options.admission.queue_high_watermark = 2 * workers;
  return options;
}

// One sweep level on its own service.  It runs in slices, so the levels
// take turns and share whatever load the host carries.
class SweepLevel {
 public:
  SweepLevel(std::size_t threads, std::size_t per_thread, std::size_t workers,
             const char* engine, mont::obs::Tracer* tracer)
      : service_(LoadKeystore(workers), LoadOptions(workers, engine, tracer)),
        transport_(service_),
        per_thread_(per_thread),
        latencies_(threads),
        oks_(threads, 0),
        refusals_(threads, 0) {
    point_.threads = threads;
    point_.offered = threads * per_thread;
  }

  /// Repeats closed-loop rounds until `seconds` have passed.
  void RunSlice(double seconds) {
    const std::size_t threads = point_.threads;
    const auto start = Clock::now();
    do {
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (std::size_t i = 0; i < per_thread_; ++i) {
            server::SignRequest request;
            request.request_id = (rounds_ * threads + t) * per_thread_ + i + 1;
            request.tenant_id = 1;
            request.key_id = 1;
            request.message = {static_cast<std::uint8_t>(t),
                               static_cast<std::uint8_t>(i)};
            const auto sent = Clock::now();
            const auto response = transport_.Call(request).get();
            const double micros =
                std::chrono::duration<double, std::micro>(Clock::now() - sent)
                    .count();
            if (!response) continue;
            if (response->status == server::StatusCode::kOk) {
              ++oks_[t];
              latencies_[t].push_back(micros);
            } else if (response->status ==
                           server::StatusCode::kRejectedBackpressure ||
                       response->status ==
                           server::StatusCode::kShedOverload) {
              ++refusals_[t];
            }
          }
        });
      }
      for (std::thread& thread : pool) thread.join();
      ++rounds_;
    } while (Clock::now() - start < std::chrono::duration<double>(seconds));
    point_.wall_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }

  /// Totals over every slice; exits on a released bad signature or job
  /// counters that do not conserve.
  SweepPoint Finish() {
    service_.Wait();
    SweepPoint point = point_;
    point.sent = rounds_ * point.offered;
    std::vector<double> all;
    for (std::size_t t = 0; t < point.threads; ++t) {
      point.ok += oks_[t];
      point.refused += refusals_[t];
      all.insert(all.end(), latencies_[t].begin(), latencies_[t].end());
    }
    std::sort(all.begin(), all.end());
    point.p50_us = Percentile(all, 0.50);
    point.p95_us = Percentile(all, 0.95);
    point.p99_us = Percentile(all, 0.99);
    point.goodput_per_sec =
        point.wall_seconds > 0
            ? static_cast<double>(point.ok) / point.wall_seconds
            : 0;
    point.offered_per_sec =
        point.wall_seconds > 0
            ? static_cast<double>(point.sent) / point.wall_seconds
            : 0;

    const mont::obs::MetricsSnapshot metrics = service_.registry().Snapshot();
    if (metrics.CounterValue("server.bad_signatures_released") != 0) {
      std::fprintf(stderr, "FATAL: bad signature released under load\n");
      std::exit(1);
    }
    // jobs.conservation: jobs.submitted == jobs.completed + jobs.cancelled.
    for (const std::string& violation :
         service_.registry().CheckInvariants(metrics)) {
      std::fprintf(stderr, "FATAL: %s\n", violation.c_str());
      std::exit(1);
    }
    return point;
  }

 private:
  server::SigningService service_;
  server::InProcTransport transport_;
  std::size_t per_thread_;
  std::size_t rounds_ = 0;
  SweepPoint point_;
  std::vector<std::vector<double>> latencies_;
  std::vector<std::size_t> oks_, refusals_;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  mont::obs::Tracer tracer;
  mont::obs::Tracer* const trace_ptr = trace_out.empty() ? nullptr : &tracer;
  const std::size_t workers = 2;
  const std::size_t per_thread = smoke ? 6 : 24;
  const std::vector<std::size_t> levels =
      smoke ? std::vector<std::size_t>{1, 2, 4, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};

  std::printf("=== bench_server: signing service under load ===\n\n");
  std::vector<mont::bench::JsonRow> rows;
  rows.push_back(AdmissionModelRow());
  rows.push_back(DeadlineModelRow());

  std::printf("\nsweep: %zu workers, rounds of %zu requests/thread, closed "
              "loop, %d interleaved slices of >= %.0f ms per level\n",
              workers, per_thread, kSlices, kSliceSeconds * 1e3);
  std::printf("%8s %9s %7s %8s %12s %10s %10s %10s\n", "threads", "sent",
              "ok", "refused", "goodput/s", "p50 us", "p95 us", "p99 us");
  std::vector<std::unique_ptr<SweepLevel>> sweep;
  for (const std::size_t threads : levels) {
    sweep.push_back(std::make_unique<SweepLevel>(
        threads, per_thread, workers, "bit-serial", trace_ptr));
  }
  // The alg2-ref level joins the slice rotation but not the sweep's
  // no-collapse gate.
  sweep.push_back(std::make_unique<SweepLevel>(workers, per_thread, workers,
                                               "alg2-ref", trace_ptr));
  // Forward on even slices, backward on odd ones, so no level always runs
  // first or last.
  for (int slice = 0; slice < kSlices; ++slice) {
    for (std::size_t k = 0; k < sweep.size(); ++k) {
      sweep[slice % 2 == 0 ? k : sweep.size() - 1 - k]->RunSlice(
          kSliceSeconds);
    }
  }
  const SweepPoint alg2 = sweep.back()->Finish();
  sweep.pop_back();
  std::vector<SweepPoint> points;
  for (const auto& level : sweep) {
    const SweepPoint point = level->Finish();
    std::printf("%8zu %9zu %7zu %8zu %12.1f %10.1f %10.1f %10.1f\n",
                point.threads, point.sent, point.ok, point.refused,
                point.goodput_per_sec, point.p50_us, point.p95_us,
                point.p99_us);
    const double shed_fraction =
        point.sent > 0 ? static_cast<double>(point.refused) /
                             static_cast<double>(point.sent)
                       : 0;
    rows.push_back(
        {{"stage", "sweep"},
         {"threads", static_cast<unsigned long long>(point.threads)},
         {"offered", static_cast<unsigned long long>(point.offered)},
         {"workers", static_cast<unsigned long long>(workers)},
         // Host-throughput measurements: wall/per_sec keys are exempt
         // from the drift gate (bench_drift_check.cpp's skip class).
         {"ok_per_sec_goodput", point.goodput_per_sec},
         {"offered_per_sec", point.offered_per_sec},
         {"shed_fraction_wall", shed_fraction},
         {"p50_wall_us", point.p50_us},
         {"p95_wall_us", point.p95_us},
         {"p99_wall_us", point.p99_us}});
    points.push_back(point);
  }

  // Self-gate: goodput past saturation must degrade gracefully, not
  // collapse.  (Admission sheds excess load, so the service keeps
  // signing near its capacity even when offered 16x more.)
  double peak = 0;
  for (const SweepPoint& point : points) {
    peak = std::max(peak, point.goodput_per_sec);
  }
  const double last = points.back().goodput_per_sec;
  const bool no_collapse = peak <= 0 || last >= 0.5 * peak;
  std::printf("\ngoodput peak %.1f/s, at max offered load %.1f/s -> %s\n",
              peak, last, no_collapse ? "no collapse" : "COLLAPSE");

  // Self-gate: the kernel's speedup must survive the whole request path.
  const SweepPoint& kernel = *std::find_if(
      points.begin(), points.end(),
      [&](const SweepPoint& point) { return point.threads == workers; });
  const double kernel_ratio =
      alg2.goodput_per_sec > 0
          ? kernel.goodput_per_sec / alg2.goodput_per_sec
          : 0;
  const bool kernel_ok = kernel_ratio >= kMinKernelGoodputRatio;
  std::printf("engine goodput at %zu threads: bit-serial %.1f/s, alg2-ref "
              "%.1f/s -> %.1fx (gate >= %.0fx) %s\n",
              workers, kernel.goodput_per_sec, alg2.goodput_per_sec,
              kernel_ratio, kMinKernelGoodputRatio,
              kernel_ok ? "ok" : "FAIL");
  rows.push_back(
      {{"stage", "engine_goodput"},
       {"threads", static_cast<unsigned long long>(workers)},
       {"workers", static_cast<unsigned long long>(workers)},
       {"engine", "alg2-ref"},
       {"ok_per_sec_goodput", alg2.goodput_per_sec},
       {"ok_per_sec_bit_serial", kernel.goodput_per_sec},
       {"goodput_ratio_wall", kernel_ratio},
       {"gate_min_wall_ratio", kMinKernelGoodputRatio}});

  const std::string path =
      mont::bench::WriteBenchJson("server", rows, {{"smoke", smoke}});
  std::printf("wrote %s\n", path.c_str());
  if (trace_ptr != nullptr && tracer.WriteChromeJson(trace_out)) {
    std::printf("trace: %zu events -> %s (load in ui.perfetto.dev)\n",
                tracer.EventCount(), trace_out.c_str());
  }
  return no_collapse && kernel_ok ? 0 : 1;
}
