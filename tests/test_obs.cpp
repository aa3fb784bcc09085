// Unit suite for the observability layer (src/obs): metric primitives,
// the span tracer's ring/merge/export behaviour, and the end-to-end
// properties the rest of the stack relies on —
//
//   * histogram bucket geometry is exact below 4, log-linear above, and
//     saturates into an explicit overflow bucket past 2^40;
//   * ring wraparound keeps the newest events and counts every drop;
//   * striped counters merge exactly across threads (this suite also
//     runs under the TSan preset via `ctest -L obs`);
//   * two deterministic-executor replays of the same seed export
//     byte-identical chrome://tracing JSON — the replay contract;
//   * conservation invariants and the STATS wire verb answer from the
//     same snapshot;
//   * every serving-stack counter is registered at construction, and the
//     tests' strict lookup fails on a name nothing registered.
//
// The chaos case at the bottom doubles as the CI trace artifact: it
// writes `chaos_seeded.trace.json` into the test working directory,
// which the CI workflow uploads for loading in ui.perfetto.dev.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/exp_service.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/chaos.hpp"
#include "server/keystore.hpp"
#include "server/signing_service.hpp"
#include "server/wire.hpp"
#include "testutil.hpp"

namespace mont::obs {
namespace {

using bignum::BigUInt;

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(HistogramGeometry, ExactBucketsBelowFour) {
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(HistogramBucketIndex(v), v);
    EXPECT_EQ(HistogramBucketLowerBound(v), v);
  }
}

TEST(HistogramGeometry, LowerBoundBracketsEveryValue) {
  // Walk powers of two and their neighbours across the whole range: each
  // value must land in a bucket whose [lower, next-lower) range holds it.
  for (int shift = 2; shift < 40; ++shift) {
    for (std::int64_t delta : {-1, 0, 1}) {
      const std::uint64_t v =
          (std::uint64_t{1} << shift) + static_cast<std::uint64_t>(delta);
      const std::size_t index = HistogramBucketIndex(v);
      EXPECT_LE(HistogramBucketLowerBound(index), v)
          << "value " << v << " below its bucket";
      EXPECT_GT(HistogramBucketLowerBound(index + 1), v)
          << "value " << v << " past its bucket";
    }
  }
}

TEST(HistogramGeometry, BucketIndexIsMonotonic) {
  std::size_t last = 0;
  for (int shift = 0; shift < 39; ++shift) {
    const std::size_t index = HistogramBucketIndex(std::uint64_t{1} << shift);
    EXPECT_GE(index, last);
    last = index;
  }
}

TEST(HistogramCell, OverflowBucketPastTwoToTheForty) {
  Registry registry;
  Histogram histogram = registry.GetHistogram("test.latency");
  histogram.Record(3);
  histogram.Record(std::uint64_t{1} << 40);       // first overflow value
  histogram.Record(~std::uint64_t{0});            // u64 max
  const HistogramSnapshot snapshot =
      registry.Snapshot().histograms.at("test.latency");
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.overflow, 2u);
  EXPECT_EQ(snapshot.min, 3u);
  EXPECT_EQ(snapshot.max, ~std::uint64_t{0});
  // The overflow quantile answers `max`, not a bucket bound.
  EXPECT_EQ(snapshot.Percentile(0.99), ~std::uint64_t{0});
}

TEST(HistogramCell, PercentileAnswersFromBucketLowerBounds) {
  Registry registry;
  Histogram histogram = registry.GetHistogram("test.p");
  for (std::uint64_t v = 0; v < 100; ++v) histogram.Record(v);
  const HistogramSnapshot snapshot =
      registry.Snapshot().histograms.at("test.p");
  EXPECT_EQ(snapshot.count, 100u);
  const std::uint64_t p50 = snapshot.Percentile(0.50);
  const std::uint64_t p95 = snapshot.Percentile(0.95);
  EXPECT_LE(p50, 50u);
  EXPECT_GE(p50, HistogramBucketLowerBound(HistogramBucketIndex(50)) / 2);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, 99u);
}

// ---------------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------------

TEST(RegistryTest, SameNameSharesOneCell) {
  Registry registry;
  Counter a = registry.GetCounter("shared.count");
  Counter b = registry.GetCounter("shared.count");
  a.Add(3);
  b.Add(4);
  EXPECT_EQ(a.Value(), 7u);
  EXPECT_EQ(registry.Snapshot().CounterValue("shared.count"), 7u);
}

TEST(RegistryTest, DefaultHandlesAreNoOpSinks) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  counter.Increment();
  gauge.Set(5);
  gauge.RecordMax(9);
  histogram.Record(42);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
}

// The tests' strict lookup: CounterValue reads an unregistered name as 0,
// CounterOf fails the test instead.
TEST(RegistryTest, StrictLookupFailsOnUnregisteredName) {
  Registry registry;
  registry.GetCounter("server.bad_signatures_released");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("server.bad_signatures_releasd"), 0u);
  EXPECT_NONFATAL_FAILURE(
      test::CounterOf(snapshot, "server.bad_signatures_releasd"),
      "not registered");
  EXPECT_NONFATAL_FAILURE(test::GaugeOf(snapshot, "sched.max_batch"),
                          "not registered");
  EXPECT_EQ(test::CounterOf(snapshot, "server.bad_signatures_released"), 0u);
}

TEST(RegistryTest, StripedCounterMergesExactlyAcrossThreads) {
  Registry registry;
  Counter counter = registry.GetCounter("mt.count");
  Gauge high_water = registry.GetGauge("mt.max");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
      high_water.RecordMax(t);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(high_water.Value(), kThreads - 1);
}

TEST(RegistryTest, ConservationInvariantReportsImbalanceByName) {
  Registry registry;
  registry.AddInvariant("test.conservation", {"in"}, {"out.a", "out.b"});
  Counter in = registry.GetCounter("in");
  Counter out_a = registry.GetCounter("out.a");
  Counter out_b = registry.GetCounter("out.b");
  in.Add(5);
  out_a.Add(3);
  out_b.Add(2);
  EXPECT_TRUE(registry.CheckInvariants(registry.Snapshot()).empty());

  in.Increment();  // 6 != 3 + 2
  const std::vector<std::string> violations =
      registry.CheckInvariants(registry.Snapshot());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("test.conservation"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer: ring, merge, export
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledTracerBuffersNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.enabled());
  tracer.Instant("ev", 1, 0, 10);
  tracer.Complete("span", 1, 0, 10, 20);
  EXPECT_EQ(tracer.EventCount(), 0u);
}

TEST(TracerTest, RingWraparoundKeepsNewestAndCountsDrops) {
  Tracer::Options options;
  options.ring_capacity = 8;
  Tracer tracer(options);
  for (std::uint64_t i = 0; i < 20; ++i) tracer.Instant("ev", i, 0, i);
  EXPECT_EQ(tracer.EventCount(), 8u);
  EXPECT_EQ(tracer.DroppedEvents(), 12u);
  const std::vector<TraceEvent> events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are the newest eight, still in timestamp order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, 12 + i);
  }
  tracer.Clear();
  EXPECT_EQ(tracer.EventCount(), 0u);
  EXPECT_EQ(tracer.DroppedEvents(), 0u);
}

TEST(TracerTest, CrossThreadShardsMergeInTimestampOrder) {
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kEvents = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        tracer.Instant("ev", static_cast<std::uint64_t>(t), 0,
                       i * kThreads + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracer.EventCount(), kThreads * kEvents);
  EXPECT_EQ(tracer.DroppedEvents(), 0u);
  const std::vector<TraceEvent> events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), kThreads * kEvents);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts);
  }
}

TEST(TracerTest, ExportIsWellFormedChromeJson) {
  Tracer tracer;
  tracer.Instant("point", 7, 2, 100, {{"tenant", 3}});
  tracer.Complete("span", 7, 2, 100, 250, {{"ok", 1}});
  const std::string json = tracer.ExportChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"span\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":150"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":3"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

// ---------------------------------------------------------------------------
// Deterministic replay: the byte-identity contract
// ---------------------------------------------------------------------------

/// One seeded bursty run on the DeterministicExecutor with a fresh
/// tracer; returns the exported JSON.
std::string ReplayTraceJson() {
  bignum::RandomBigUInt rng(0xdecaf);
  std::vector<BigUInt> pool;
  pool.push_back(rng.OddExactBits(128));
  pool.push_back(rng.OddExactBits(192));

  Tracer tracer;
  core::ExpService::Options options;
  options.workers = 3;
  options.tracer = &tracer;
  core::DeterministicExecutor exec(options);
  for (std::uint64_t j = 0; j < 24; ++j) {
    const BigUInt& n = pool[j % pool.size()];
    exec.SubmitAt(j * 1000, n, rng.Below(n), rng.Below(n));
  }
  exec.RunUntilIdle();
  EXPECT_TRUE(exec.registry().CheckInvariants(exec.registry().Snapshot())
                  .empty());
  EXPECT_GT(tracer.EventCount(), 0u);
  EXPECT_EQ(tracer.DroppedEvents(), 0u);
  return tracer.ExportChromeJson();
}

TEST(DeterministicReplay, TwoReplaysExportByteIdenticalTraces) {
  const std::string first = ReplayTraceJson();
  const std::string second = ReplayTraceJson();
  EXPECT_EQ(first, second);
  // The trace carries the full job lifecycle, on virtual timestamps.
  EXPECT_NE(first.find("\"name\":\"job.submit\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"job.run\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// STATS wire verb, registered names, and the CI chaos trace artifact
// ---------------------------------------------------------------------------

const crypto::RsaKeyPair& TestKey() {
  static const crypto::RsaKeyPair key = [] {
    bignum::RandomBigUInt rng(0x0b5e7e57);
    return crypto::GenerateRsaKey(512, rng);
  }();
  return key;
}

server::SignRequest MakeSignRequest(std::uint64_t request_id,
                                    const std::string& message) {
  server::SignRequest request;
  request.request_id = request_id;
  request.tenant_id = 1;
  request.key_id = 1;
  request.message.assign(message.begin(), message.end());
  return request;
}

TEST(StatsVerb, RoundTripsMergedRegistrySnapshot) {
  server::Keystore keystore;
  keystore.AddTenant(1, {});
  keystore.AddKey(1, 1, TestKey());
  server::SigningService service(std::move(keystore), {});

  const auto signed_response = service.HandleRequestSync(
      server::EncodeSignRequest(MakeSignRequest(1, "stats round-trip")));
  ASSERT_EQ(signed_response.status, server::StatusCode::kOk);

  server::SignRequest stats;
  stats.type = server::RequestType::kStats;
  stats.request_id = 42;
  const auto response =
      service.HandleRequestSync(server::EncodeSignRequest(stats));
  EXPECT_EQ(response.status, server::StatusCode::kOk);
  EXPECT_EQ(response.request_id, 42u);
  const std::string json(response.payload.begin(), response.payload.end());
  // One merged snapshot: front-end counters and the ExpService's jobs.*
  // both present.
  EXPECT_NE(json.find("\"server.ok\":1"), std::string::npos);
  EXPECT_NE(json.find("\"jobs.completed\""), std::string::npos);
  EXPECT_EQ(test::CounterOf(service.registry(), "server.stats_requests"), 1u);
  // Conservation laws only hold on a quiescent snapshot: the sync
  // response can arrive a hair before the worker bumps jobs.completed.
  service.Wait();
  EXPECT_TRUE(service.registry()
                  .CheckInvariants(service.registry().Snapshot())
                  .empty());
}

/// Every counter the serving stack publishes.
constexpr const char* kServingCounters[] = {
    // The exponentiation service.
    "jobs.submitted", "jobs.completed", "jobs.cancelled", "issues.paired",
    "issues.single", "engine.cache_hits", "engine.cache_misses",
    "engine.cache_evictions",
    // Its scheduler (plus the gauge sched.max_batch_claimed).
    "sched.dispatched_groups", "sched.pairs_formed", "sched.holds",
    "sched.hold_pairs", "sched.unpair_timeouts", "sched.steals",
    "sched.batch_acquires", "sched.cancelled",
    // The signing front-end.
    "server.requests", "server.pings", "server.stats_requests",
    "server.admitted", "server.ok", "server.rejected_backpressure",
    "server.shed_overload", "server.deadline_exceeded",
    "server.retry_exhausted", "server.shutdown_refused", "server.malformed",
    "server.unknown_tenant", "server.unknown_key", "server.faults_caught",
    "server.internal_retries", "server.bad_signatures_released",
    // The chaos harness, on the service's registry.
    "chaos.worker_stalls", "chaos.crt_corruptions", "chaos.requests_dropped",
    "chaos.responses_dropped", "chaos.frames_garbled"};

// STATS consumers see every counter from the first request on, at 0 if
// nothing has happened yet: each name is registered at construction,
// not on first use.
TEST(StatsVerb, EveryCounterIsRegisteredBeforeAnyTraffic) {
  Registry registry;
  server::ChaosLayer chaos(server::ChaosOptions{}, &registry);
  server::Keystore keystore;
  keystore.AddTenant(1, {});
  keystore.AddKey(1, 1, TestKey());
  server::SigningService::Options options;
  options.service.registry = &registry;
  options.chaos = &chaos;
  server::SigningService service(std::move(keystore), options);

  const MetricsSnapshot snapshot = registry.Snapshot();
  for (const char* name : kServingCounters) {
    EXPECT_EQ(test::CounterOf(snapshot, name), 0u) << name;
  }
  EXPECT_EQ(test::GaugeOf(snapshot, "sched.max_batch_claimed"), 0);
}

TEST(ChaosTrace, SeededChaosRunWritesPerfettoArtifact) {
  server::ChaosOptions chaos_options;
  chaos_options.seed = 0xc4a05;
  chaos_options.corrupt_crt_rate = 0.3;
  server::ChaosLayer chaos(chaos_options);

  server::Keystore keystore;
  keystore.AddTenant(1, {});
  keystore.AddKey(1, 1, TestKey());
  Tracer tracer;
  server::SigningService::Options options;
  options.chaos = &chaos;
  options.max_internal_retries = 4;
  options.service.tracer = &tracer;
  server::SigningService service(std::move(keystore), options);

  for (int i = 0; i < 8; ++i) {
    service.HandleRequestSync(server::EncodeSignRequest(
        MakeSignRequest(static_cast<std::uint64_t>(i + 1),
                        "chaos trace " + std::to_string(i))));
  }
  service.Wait();
  EXPECT_GT(tracer.EventCount(), 0u);

  // The artifact CI uploads: a request-lifecycle trace from a seeded
  // chaos run, loadable in ui.perfetto.dev.
  const std::string path = "chaos_seeded.trace.json";
  ASSERT_TRUE(tracer.WriteChromeJson(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char prefix[16] = {};
  const std::size_t read = std::fread(prefix, 1, sizeof(prefix) - 1, file);
  std::fclose(file);
  EXPECT_EQ(std::string(prefix, read).rfind("{\"traceEvents\"", 0), 0u);
  // The chaos run's fault handling shows up in the trace: every caught
  // fault emitted a bellcore.fault event.
  const std::string json = tracer.ExportChromeJson();
  if (test::CounterOf(service.registry(), "server.faults_caught") > 0) {
    EXPECT_NE(json.find("\"name\":\"bellcore.fault\""), std::string::npos);
  }
}

}  // namespace
}  // namespace mont::obs
