// bench_exp_service — the batched async exponentiation service under load:
// jobs/sec versus worker count, pairing on/off, and queue depth.
//
// Two throughput views matter and the bench reports both:
//
//   * wall jobs/s — host-side service throughput (queue + worker pool
//     overhead on this machine's cores);
//   * modelled jobs per gigacycle — throughput of the modelled hardware,
//     from the per-issue cycle charges (3l+5 per dual-channel MMM pair,
//     3l+4 per single MMM).  This is where dual-channel pairing shows:
//     with a deep queue of same-length jobs nearly every MMM issues
//     paired, so the array retires ~2 MMMs per 3l+5 cycles and the
//     paired/unpaired ratio approaches 2(3l+4)/(3l+5) ~ 1.97x.
//
// The queue-depth sweep demonstrates the scheduling side: pairing needs
// at least two queued jobs, so depth 1 pairs nothing and the pairing
// fraction (and modelled throughput) climbs with depth.  It runs on the
// DeterministicExecutor, in waves of `depth` jobs that each arrive at one
// virtual tick, so its pairing is an exact function of the workload: on
// a threaded pool a wave pairs its first two jobs only when the second
// arrives before a worker claims the first, which the host decides.
//
// The multi-tenant stress section runs on the DeterministicExecutor —
// the same scheduling core as the threaded service, driven by a virtual
// clock — because on a small CI box wall-clock throughput of a worker
// pool measures the host, not the scheduler.  Virtual time measures the
// modelled arrays: per-job latency percentiles (p50/p95/p99) and
// saturation throughput (jobs per array-gigacycle of occupancy) are
// exact and replayable.  bench_drift_check gates the stress row's array
// occupancy (busy_cycles, strict) and its jobs/Gcycle in CI, so a
// scheduling change that loses pairs on the bursty mixed-tenant trace
// fails there.
//
// Writes BENCH_exp_service.json and BENCH_scheduler.json (see
// bench_json.hpp); --smoke restricts the sweep for the ctest `perf`
// label.  `--trace-out FILE` attaches an obs::Tracer to the stress
// replay and dumps it as chrome://tracing JSON; two runs write
// byte-identical files (ctest bench_exp_service_trace_replay).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_json.hpp"
#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/exp_service.hpp"
#include "core/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using mont::bignum::BigUInt;
using mont::core::DeterministicExecutor;
using mont::core::ExpService;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::size_t l = 0;
  std::vector<BigUInt> moduli;     // one per job (cycled over a small pool)
  std::vector<BigUInt> bases;
  std::vector<BigUInt> exponents;
};

Workload MakeWorkload(std::size_t l, std::size_t jobs, std::uint64_t seed) {
  Workload load;
  load.l = l;
  mont::bignum::RandomBigUInt rng(seed);
  std::vector<BigUInt> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(rng.OddExactBits(l));
  for (std::size_t j = 0; j < jobs; ++j) {
    const BigUInt& n = pool[j % pool.size()];
    load.moduli.push_back(n);
    load.bases.push_back(rng.Below(n));
    load.exponents.push_back(rng.BalancedExactBits(l));
  }
  return load;
}

struct RunStats {
  double wall_seconds = 0;
  double wall_jobs_per_sec = 0;
  std::uint64_t model_cycles = 0;  // array occupancy across all issues
  double jobs_per_gigacycle = 0;
  double paired_fraction = 0;  // jobs that ran co-scheduled
};

/// Pushes the whole workload through a threaded service and accounts
/// wall time and modelled array cycles.
RunStats RunWorkload(const Workload& load, std::size_t workers,
                     bool pairing) {
  ExpService::Options options;
  options.workers = workers;
  options.enable_pairing = pairing;
  ExpService service(options);

  const std::size_t jobs = load.moduli.size();
  RunStats stats;
  const Clock::time_point begin = Clock::now();
  std::vector<std::future<ExpService::Result>> futures;
  futures.reserve(jobs);
  std::uint64_t paired_jobs = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    futures.push_back(
        service.Submit(load.moduli[j], load.bases[j], load.exponents[j]));
  }
  for (auto& future : futures) {
    const ExpService::Result result = future.get();
    if (result.paired) {
      ++paired_jobs;
      // Both partners report the group total: attribute half each so
      // every issue group counts once.
      stats.model_cycles += result.stats.engine_cycles / 2;
    } else {
      stats.model_cycles += result.stats.engine_cycles;
    }
  }
  stats.wall_seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  stats.wall_jobs_per_sec = static_cast<double>(jobs) / stats.wall_seconds;
  stats.jobs_per_gigacycle =
      static_cast<double>(jobs) / static_cast<double>(stats.model_cycles) *
      1e9;
  stats.paired_fraction =
      static_cast<double>(paired_jobs) / static_cast<double>(jobs);
  return stats;
}

/// Runs the workload on a DeterministicExecutor in waves of `depth` jobs
/// (0 = one wave of everything): each wave arrives at one virtual tick,
/// the next when the last job of the previous wave finishes.  Modelled
/// cycles and pairs come from the registry (engine.cycles counts each
/// issue group once; issues.paired counts pairs).
RunStats RunDepthWaves(const Workload& load, std::size_t workers,
                       std::size_t depth) {
  ExpService::Options options;
  options.workers = workers;
  DeterministicExecutor exec(options);

  const std::size_t jobs = load.moduli.size();
  const std::size_t wave = depth == 0 ? jobs : depth;
  const Clock::time_point begin = Clock::now();
  for (std::size_t first = 0; first < jobs; first += wave) {
    const std::uint64_t arrival = exec.Now();
    for (std::size_t j = first; j < std::min(first + wave, jobs); ++j) {
      exec.SubmitAt(arrival, load.moduli[j], load.bases[j],
                    load.exponents[j]);
    }
    exec.RunUntilIdle();
  }
  RunStats stats;
  stats.wall_seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  stats.wall_jobs_per_sec = static_cast<double>(jobs) / stats.wall_seconds;
  const mont::obs::MetricsSnapshot metrics = exec.registry().Snapshot();
  stats.model_cycles = metrics.CounterValue("engine.cycles");
  stats.jobs_per_gigacycle =
      static_cast<double>(jobs) / static_cast<double>(stats.model_cycles) *
      1e9;
  stats.paired_fraction =
      static_cast<double>(2 * metrics.CounterValue("issues.paired")) /
      static_cast<double>(jobs);
  return stats;
}

// ---------------------------------------------------------------------------
// Multi-tenant bursty stress on the deterministic executor
// ---------------------------------------------------------------------------

struct TenantJob {
  std::size_t pool_index = 0;   // modulus pool entry
  const char* engine = "";      // per-job engine override ("" = default)
  BigUInt base, exponent;
  std::uint64_t arrival = 0;    // virtual tick
};

struct StressTrace {
  std::vector<BigUInt> pool;
  std::vector<TenantJob> jobs;  // sorted by arrival
  std::uint64_t mean_gap = 0;
};

/// Virtual duration of one solo job at bit length l (default backend).
std::uint64_t CalibrateSoloTicks(const BigUInt& n, const BigUInt& base,
                                 const BigUInt& exponent) {
  ExpService::Options options;
  options.workers = 1;
  DeterministicExecutor calibrate(options);
  calibrate.SubmitAt(0, n, base, exponent);
  calibrate.RunUntilIdle();
  const auto& record = calibrate.Records().at(0);
  return record.finish_tick - record.start_tick;
}

/// Seeded bursty mixed-tenant trace: three tenants (128-bit default
/// engine, 256-bit default engine, 128-bit word-mont override) with
/// Poisson inter-burst gaps and geometric burst sizes, tuned so all-solo
/// issue would load each worker near 0.8 — loaded enough to queue,
/// sparse enough that the queue rarely holds two equal-length jobs at
/// once, so pairs come from hold-for-pairing rather than depth.
StressTrace MakeStressTrace(std::size_t jobs, std::size_t workers,
                            std::uint64_t seed) {
  StressTrace trace;
  mont::bignum::RandomBigUInt rng(seed);
  // Pool: two moduli per bit length so the engine cache sees churn.
  for (int i = 0; i < 2; ++i) trace.pool.push_back(rng.OddExactBits(128));
  for (int i = 0; i < 2; ++i) trace.pool.push_back(rng.OddExactBits(256));

  const std::uint64_t solo_128 = CalibrateSoloTicks(
      trace.pool[0], rng.Below(trace.pool[0]), rng.Below(trace.pool[0]));
  const std::uint64_t solo_256 = CalibrateSoloTicks(
      trace.pool[2], rng.Below(trace.pool[2]), rng.Below(trace.pool[2]));

  // Tenant mix and the implied mean cost per arrival (word-mont runs on
  // the modelled word datapath but is charged its engine's cycles; the
  // 128-bit estimate is close enough for load tuning).
  const double mean_cost = 0.60 * static_cast<double>(solo_128) +
                           0.25 * static_cast<double>(solo_256) +
                           0.15 * static_cast<double>(solo_128);
  const double utilization = 0.8;
  trace.mean_gap = static_cast<std::uint64_t>(
      mean_cost / (static_cast<double>(workers) * utilization));

  std::uint64_t tick = 0;
  std::size_t burst_left = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    if (burst_left == 0) {
      // Geometric burst size (mean 2), exponential gap between bursts
      // scaled so the long-run arrival rate stays 1/mean_gap.
      burst_left = 1;
      while (burst_left < 4 && rng.Engine().NextBelow(2) == 0) ++burst_left;
      const double u =
          (static_cast<double>(rng.Engine().NextBelow(1u << 20)) + 1.0) /
          static_cast<double>(1u << 20);
      tick += static_cast<std::uint64_t>(
          -2.0 * static_cast<double>(trace.mean_gap) * std::log(u));
    }
    --burst_left;
    TenantJob job;
    const std::uint64_t tenant = rng.Engine().NextBelow(20);
    if (tenant < 12) {  // 60%: 128-bit, default (pairable) engine
      job.pool_index = rng.Engine().NextBelow(2);
    } else if (tenant < 17) {  // 25%: 256-bit, default engine
      job.pool_index = 2 + rng.Engine().NextBelow(2);
    } else {  // 15%: 128-bit on the word-serial datapath (never pairs)
      job.pool_index = rng.Engine().NextBelow(2);
      job.engine = "word-mont";
    }
    const BigUInt& n = trace.pool[job.pool_index];
    job.base = rng.Below(n);
    job.exponent = rng.Below(n);
    job.arrival = tick;
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

struct StressStats {
  std::uint64_t busy_cycles = 0;   // array occupancy, groups counted once
  double jobs_per_gigacycle = 0;
  double paired_fraction = 0;
  std::uint64_t makespan = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;  // virtual latency (cycles)
  mont::obs::MetricsSnapshot metrics;        // the executor's registry
};

StressStats RunStress(const StressTrace& trace, std::size_t workers,
                      std::uint64_t unpair_timeout,
                      mont::obs::Tracer* tracer) {
  ExpService::Options options;
  options.workers = workers;
  options.unpair_timeout = unpair_timeout;
  options.engine_cache_capacity = 6;
  options.tracer = tracer;
  DeterministicExecutor exec(options);
  for (const TenantJob& job : trace.jobs) {
    mont::core::ExpJobOptions job_options;
    job_options.engine_name = job.engine;
    exec.SubmitAt(job.arrival, trace.pool[job.pool_index], job.base,
                  job.exponent, job_options);
  }
  exec.RunUntilIdle();

  StressStats stats;
  stats.metrics = exec.registry().Snapshot();
  stats.makespan = exec.Now();
  std::set<std::tuple<std::size_t, std::uint64_t, std::uint64_t>> groups;
  std::vector<std::uint64_t> latencies;
  std::uint64_t paired = 0;
  for (const auto& record : exec.Records()) {
    groups.emplace(record.worker, record.start_tick, record.finish_tick);
    latencies.push_back(record.finish_tick - record.submit_tick);
    if (record.paired) ++paired;
  }
  for (const auto& [worker, start, finish] : groups) {
    stats.busy_cycles += finish - start;
  }
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    const std::size_t index = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1));
    return latencies[index];
  };
  stats.p50 = percentile(0.50);
  stats.p95 = percentile(0.95);
  stats.p99 = percentile(0.99);
  stats.jobs_per_gigacycle = static_cast<double>(trace.jobs.size()) /
                             static_cast<double>(stats.busy_cycles) * 1e9;
  stats.paired_fraction = static_cast<double>(paired) /
                          static_cast<double>(trace.jobs.size());
  return stats;
}

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
  const std::vector<std::size_t> lengths =
      smoke ? std::vector<std::size_t>{128}
            : std::vector<std::size_t>{128, 256};
  const std::size_t jobs = smoke ? 96 : 256;
  const std::vector<std::size_t> worker_counts =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};

  std::vector<mont::bench::JsonRow> rows;

  std::printf("=== ExpService: jobs/s vs workers, dual-channel pairing "
              "on/off ===\n\n");
  std::printf("%6s %8s | %-23s | %-23s | %s\n", "", "",
              "unpaired (1 job/pass)", "paired (2 jobs/pass)", "model");
  std::printf("%6s %8s | %11s %11s | %11s %11s %7s | %s\n", "l", "workers",
              "wall j/s", "j/Gcycle", "wall j/s", "j/Gcycle", "paired",
              "speedup");
  std::printf("-------+--------+------------------------+------------------"
              "--------------+--------\n");
  for (const std::size_t l : lengths) {
    const Workload load = MakeWorkload(l, jobs, 0x5e1f5e1full + l);
    for (const std::size_t workers : worker_counts) {
      const RunStats unpaired = RunWorkload(load, workers, /*pairing=*/false);
      const RunStats paired = RunWorkload(load, workers, /*pairing=*/true);
      const double model_speedup =
          paired.jobs_per_gigacycle / unpaired.jobs_per_gigacycle;
      std::printf("%6zu %8zu | %11.1f %11.2f | %11.1f %11.2f %6.0f%% | "
                  "%6.2fx\n",
                  l, workers, unpaired.wall_jobs_per_sec,
                  unpaired.jobs_per_gigacycle, paired.wall_jobs_per_sec,
                  paired.jobs_per_gigacycle, paired.paired_fraction * 100,
                  model_speedup);
      rows.push_back({
          {"phase", "workers"},
          {"l", l},
          {"workers", workers},
          {"jobs", jobs},
          {"unpaired_wall_jobs_per_sec", unpaired.wall_jobs_per_sec},
          {"unpaired_jobs_per_gigacycle", unpaired.jobs_per_gigacycle},
          {"unpaired_model_cycles", unpaired.model_cycles},
          {"paired_wall_jobs_per_sec", paired.wall_jobs_per_sec},
          {"paired_jobs_per_gigacycle", paired.jobs_per_gigacycle},
          {"paired_model_cycles", paired.model_cycles},
          {"paired_fraction", paired.paired_fraction},
          {"paired_speedup_model", model_speedup},
      });
    }
  }

  std::printf("\n=== Pairing fraction vs queue depth (l = %zu, 2 workers, "
              "deterministic executor) ===\n\n", lengths.front());
  std::printf("%7s | %9s | %11s | %s\n", "depth", "paired", "j/Gcycle",
              "wall j/s");
  std::printf("--------+-----------+-------------+---------\n");
  {
    const Workload load =
        MakeWorkload(lengths.front(), jobs, 0xdeb7full);
    for (const std::size_t depth : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}, std::size_t{0}}) {
      const RunStats run = RunDepthWaves(load, /*workers=*/2, depth);
      std::printf("%7s | %8.0f%% | %11.2f | %8.1f\n",
                  depth == 0 ? "inf" : std::to_string(depth).c_str(),
                  run.paired_fraction * 100, run.jobs_per_gigacycle,
                  run.wall_jobs_per_sec);
      rows.push_back({
          {"phase", "depth"},
          {"l", lengths.front()},
          {"depth", depth},  // 0 = unbounded
          {"jobs", jobs},
          {"paired_fraction", run.paired_fraction},
          {"jobs_per_gigacycle", run.jobs_per_gigacycle},
          {"wall_jobs_per_sec", run.wall_jobs_per_sec},
      });
    }
  }

  // --- multi-tenant bursty stress -------------------------------------
  const std::size_t stress_jobs = smoke ? 96 : 320;
  const std::size_t stress_workers = 4;
  const StressTrace trace =
      MakeStressTrace(stress_jobs, stress_workers, 0x57e55eedull);
  // Hold at most a few inter-arrival gaps: long enough that a same-key
  // partner usually arrives, short enough to bound added latency.
  const std::uint64_t unpair_timeout = 4 * trace.mean_gap;
  const StressStats stress =
      RunStress(trace, stress_workers, unpair_timeout, trace_ptr);

  std::printf("\n=== Multi-tenant bursty stress (deterministic executor, "
              "%zu jobs, %zu workers) ===\n\n", stress_jobs, stress_workers);
  std::printf("3 tenants: 60%% 128-bit + 25%% 256-bit on the systolic "
              "array, 15%% word-mont overrides;\nbursty Poisson arrivals, "
              "mean gap %llu cycles, unpair timeout %llu cycles.\n\n",
              static_cast<unsigned long long>(trace.mean_gap),
              static_cast<unsigned long long>(unpair_timeout));
  std::printf("%10s %8s | %10s %10s %10s | %9s | %10s\n", "j/Gcycle",
              "paired", "p50", "p95", "p99", "makespan", "busy");
  std::printf("%10.2f %7.0f%% | %10llu %10llu %10llu | %9llu | %10llu\n",
              stress.jobs_per_gigacycle, stress.paired_fraction * 100,
              static_cast<unsigned long long>(stress.p50),
              static_cast<unsigned long long>(stress.p95),
              static_cast<unsigned long long>(stress.p99),
              static_cast<unsigned long long>(stress.makespan),
              static_cast<unsigned long long>(stress.busy_cycles));

  rows.push_back({
      {"phase", "stress"},
      {"scheduler", "stealing"},
      {"jobs", stress_jobs},
      {"workers", stress_workers},
      {"busy_cycles", stress.busy_cycles},
      {"jobs_per_gigacycle", stress.jobs_per_gigacycle},
      {"paired_fraction", stress.paired_fraction},
      {"latency_p50_cycles", stress.p50},
      {"latency_p95_cycles", stress.p95},
      {"latency_p99_cycles", stress.p99},
      {"makespan_cycles", stress.makespan},
      {"steals", stress.metrics.CounterValue("sched.steals")},
      {"holds", stress.metrics.CounterValue("sched.holds")},
      {"unpair_timeouts", stress.metrics.CounterValue("sched.unpair_timeouts")},
  });
  rows.push_back({
      {"phase", "stress_summary"},
      {"jobs", stress_jobs},
      {"workers", stress_workers},
      {"mean_gap_cycles", trace.mean_gap},
      {"unpair_timeout_cycles", unpair_timeout},
  });

  const std::string path = mont::bench::WriteBenchJson(
      "exp_service", rows, {{"smoke", smoke}});

  // Scheduler micro-metrics as their own artifact, so scheduling-policy
  // drift (holds, steals, batch shapes) is gated independently of the
  // throughput numbers above.
  const mont::obs::MetricsSnapshot& m = stress.metrics;
  const std::vector<mont::bench::JsonRow> sched_rows = {{
      {"scheduler", "stealing"},
      {"jobs", stress_jobs},
      {"pair_issues", m.CounterValue("issues.paired")},
      {"single_issues", m.CounterValue("issues.single")},
      {"steals", m.CounterValue("sched.steals")},
      {"holds", m.CounterValue("sched.holds")},
      {"hold_pairs", m.CounterValue("sched.hold_pairs")},
      {"unpair_timeouts", m.CounterValue("sched.unpair_timeouts")},
      {"batch_acquires", m.CounterValue("sched.batch_acquires")},
      {"max_batch_claimed", m.gauges.at("sched.max_batch_claimed")},
      {"engine_cache_hits", m.CounterValue("engine.cache_hits")},
      {"engine_cache_misses", m.CounterValue("engine.cache_misses")},
  }};
  const std::string sched_path = mont::bench::WriteBenchJson(
      "scheduler", sched_rows,
      {{"smoke", smoke},
       {"unpair_timeout_cycles", unpair_timeout},
       {"max_batch", 8}});

  std::printf("\njobs/Gcycle = modelled-array throughput (3l+5 per paired "
              "MMM issue, 3l+4 single);\nwall j/s = host-side service "
              "throughput.  JSON written to %s and %s\n", path.c_str(),
              sched_path.c_str());
  if (trace_ptr != nullptr && tracer.WriteChromeJson(trace_out)) {
    std::printf("trace: %zu events -> %s (load in ui.perfetto.dev)\n",
                tracer.EventCount(), trace_out.c_str());
  }
  return 0;
}
