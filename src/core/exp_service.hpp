// exp_service.hpp — the batched, asynchronous modular-exponentiation
// service: the serving layer between crypto traffic (RSA, ECC) and the
// repo's multiplication backends.
//
// The paper's endpoint is one modular exponentiator; a deployment serves a
// *stream* of exponentiations over a handful of hot moduli.  This layer
// adds exactly what that takes:
//
//   * a thread-safe job queue — Submit() returns a std::future (with an
//     optional completion callback), SubmitBatch() fans a vector of jobs
//     out, SubmitTogether() queues two jobs under one lock (the two
//     RSA-CRT halves of one signature), and Post() hands a continuation
//     (e.g. RSA-CRT recombination + fault check) to a dedicated thread so
//     it never blocks a worker's array;
//   * a worker pool whose per-modulus multiplication engines are
//     LRU-cached, so repeated traffic on one key pays the R^2-mod-N
//     precomputation once (core/schedule.hpp LruCache);
//   * one scheduler (core/schedule.hpp StealScheduler): per-worker
//     deques with cross-worker work stealing, hold-for-pairing with an
//     age-based unpair timeout, and adaptive batch claims — two queued
//     jobs of equal operand length are issued together onto one
//     dual-channel interleaved array, where each pair of MMMs costs 3l+5
//     cycles instead of the sequential 2(3l+4) = 6l+8.
//
// Every scheduling decision is tick-driven behind an injectable Clock,
// and the threaded ExpService is a thin shell over the same scheduler,
// execution code (ExecutionCore) and job lifecycle — validation, the
// claim-time deadline gate, promise-then-callback resolution, typed
// cancellation, spans and counters — that the single-threaded
// DeterministicExecutor replays in virtual time.  That is how the
// stealing/unpair/pipelining policy is unit-tested and benchmarked
// deterministically on any host.
//
// The multiplication backend is selected per service through the engine
// registry (Options::engine_name, core/engine.hpp) — any registered
// datapath serves, and with Options::engine_options.field = kGf2 a
// dual-field backend serves GF(2^m) jobs (the modulus is the field
// polynomial f and each job computes a field exponentiation, e.g. the
// Fermat inversions of BinaryCurve::ScalarMulBatch).  Individual jobs
// may override the backend and request exponent blinding (the sca lab's
// schedule countermeasure) through ExpJobOptions.
//
// Every job runs the one §4.5 scan (core/exp_scan.hpp): a solo job is
// MmmEngine::ModExp on its cached engine, a co-scheduled pair is
// PairedModExp.  PairedModExp() is exposed directly: it zips the MMM
// streams of two independent exponentiations (which may use two
// different equal-length moduli — see the dual-modulus InterleavedMmmc)
// through any two backends of equal operand length, and can optionally
// run every product clock-by-clock on a dual-channel array model.  On an AVX-512 IFMA CPU the bit-serial backend's pairs run both
// channels in SIMD lanes (bignum/mont_lanes.hpp).  All execution paths
// are bit-identical; tests assert it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/schedule.hpp"

namespace mont::core {

class InterleavedMmmc;

struct PairedExpResult {
  bignum::BigUInt a;     ///< base_a^exp_a mod N_a
  bignum::BigUInt b;     ///< base_b^exp_b mod N_b
  /// Shared issue accounting for the whole pair, charged per the engines'
  /// own per-multiply models: a dual-channel paired issue costs one cycle
  /// over the slower channel's multiply (3l+5 on the paper's array, whose
  /// model is 3l+4), leftovers issue singly at their engine's model.  The
  /// sum (the array occupancy) lands in engine_cycles.
  EngineStats stats;
  EngineStats stats_a;   ///< per-job operation counts (A)
  EngineStats stats_b;   ///< per-job operation counts (B)
};

/// Runs two independent modular exponentiations with their MMM streams
/// zipped onto one dual-channel array: while both jobs still have work,
/// every issue carries one MMM of each (3l+5 cycles for the two); once the
/// shorter job drains, the leftover stream issues singly (3l+4).  The two
/// engines may hold different moduli but must have equal operand length.
/// One §4.5 scan per job (core/exp_scan.hpp, the same one under
/// MmmEngine::ModExp) makes the exponent walk and every stats decision,
/// whichever of three places computes the products:
///
///   * `array` non-null: every product runs clock-by-clock on that
///     dual-modulus interleaved array model (its channels must match the
///     engines' moduli, and the engines must use the array's Montgomery
///     parameter R = 2^(l+2) — the bit-serial family);
///   * both engines expose a kernel (MmmEngine::Kernel(), GF(p)
///     "bit-serial") and the CPU has avx512ifma + avx512vl: both channels
///     run as one bignum::MontLanes multiply per issue, one per SIMD lane,
///     with operands kept as 52-bit digits from domain entry to exit;
///   * otherwise: the engines' own Multiply, one channel after the other.
///
/// All three return the same values and the same stats, stats_a and
/// stats_b; tests assert it.
PairedExpResult PairedModExp(const MmmEngine& engine_a,
                             const bignum::BigUInt& base_a,
                             const bignum::BigUInt& exp_a,
                             const MmmEngine& engine_b,
                             const bignum::BigUInt& base_b,
                             const bignum::BigUInt& exp_b,
                             InterleavedMmmc* array = nullptr);

/// Per-job execution options (the service-wide Options stay the
/// defaults).
struct ExpJobOptions {
  /// Registry backend for this job; empty falls back to
  /// Options::engine_name.  Validated at Submit time (unknown name or a
  /// field-capability mismatch throws std::invalid_argument).  Jobs on
  /// different backends coexist in one service — the engine cache keys
  /// on (engine, modulus) — and two equal-length jobs still co-schedule
  /// when both backends have pairable streams; a job on a non-pairable
  /// backend always issues solo.
  std::string engine_name;
  /// Non-zero: exponent randomization — the job executes with
  /// exponent + k * exponent_blind_order for a fresh random k per
  /// execution (same result whenever the order is a multiple of the
  /// base's multiplicative order; the reported stats then count the
  /// blinded exponent's operations).
  bignum::BigUInt exponent_blind_order;
  /// Bit width of the per-execution random k.
  std::size_t exponent_blind_bits = 16;
  /// Absolute deadline on the service clock (0 = none).  A job whose
  /// deadline has passed when a worker claims it is *cancelled before
  /// engine dispatch*: its future resolves with ExpResult::cancelled set
  /// (value empty, stats.cancelled = 1), its callback still fires, and
  /// the service counts it under jobs.cancelled.  A job already handed
  /// to an engine is never aborted mid-multiply — the deadline bounds
  /// queueing, not execution.
  std::uint64_t deadline = 0;
  /// Trace id stamped on every span/instant this job emits (0 = use the
  /// service-assigned job id).  Callers propagating a request through
  /// several jobs (the RSA-CRT halves of one signing request) set the
  /// request id here, so one id threads the whole lifecycle in a trace.
  std::uint64_t trace_id = 0;
};

struct ExpResult {
  bignum::BigUInt value;  ///< base^exponent mod modulus
  /// The job's ExpJobOptions::deadline expired before engine dispatch:
  /// `value` is empty and no MMM work was performed (stats.cancelled = 1,
  /// everything else zero).  Callers must check this before using value.
  bool cancelled = false;
  bool paired = false;    ///< ran co-scheduled with a partner job
  /// The issue group was stolen from another worker's deque.
  bool stolen = false;
  /// Held for a partner that never came and released solo by the
  /// age-based unpair timeout.
  bool unpaired_by_timeout = false;
  /// This job's operation counts plus the issue accounting of the issue
  /// group it ran in (shared by both jobs of a pair; a solo job's MMMs
  /// all count as single issues): engine_cycles is the group's array
  /// occupancy, charged per the engine's own per-multiply model — on
  /// the paper's array family, paired*(3l+5) + single*(3l+4).
  EngineStats stats;
};

// ---------------------------------------------------------------------------
// ExecutionCore — the execution substrate shared by the threaded service
// and the deterministic executor
// ---------------------------------------------------------------------------

/// Everything needed to run one issue group, with no opinion about
/// threads or time: job validation, backend resolution, the per-(engine,
/// modulus) LRU engine cache, the exponent-blinding stream, and the
/// paired/solo group runner.  ExpService workers and the
/// DeterministicExecutor both execute through one of these, so the two
/// paths cannot diverge.
class ExecutionCore {
 public:
  /// `registry` (may be null) receives the engine.* counters: cycle and
  /// operation aggregates published per executed group, and the
  /// engine-cache hits, misses and evictions.
  ExecutionCore(std::string engine_name, EngineOptions engine_options,
                std::size_t cache_capacity, std::uint64_t blind_seed,
                obs::Registry* registry = nullptr);

  struct JobSpec {
    bignum::BigUInt modulus;
    bignum::BigUInt base;
    bignum::BigUInt exponent;
    ExpJobOptions options;
  };

  /// One submitted job, as both service shells track it from submit to
  /// resolution.
  struct Job {
    std::uint64_t id = 0;  ///< assigned by the shell
    JobSpec spec;
    /// The job's backend models pairable dual-channel streams.
    bool pairable = false;
    std::uint64_t submit_tick = 0;
    std::promise<ExpResult> promise;
    std::function<void(const ExpResult&)> callback;
  };

  /// Validates a submission and builds its job: the modulus for this
  /// core's field, the backend name and its field capability, and the
  /// blinding width.  Throws std::invalid_argument.
  Job MakeJob(bignum::BigUInt modulus, bignum::BigUInt base,
              bignum::BigUInt exponent, ExpJobOptions options,
              std::function<void(const ExpResult&)> callback) const;

  struct Outcome {
    std::vector<ExpResult> results;  ///< one per job, in group order
    bool paired = false;             ///< really co-scheduled dual-channel
    std::exception_ptr error;        ///< set => results are invalid
  };

  /// Runs one issue group (1 or 2 jobs): a 2-job group co-schedules via
  /// PairedModExp, a 1-job group runs MmmEngine::ModExp.  The scheduler
  /// only groups equal-length pairable jobs, so PairedModExp's own checks
  /// fail only on a broken invariant.  Never throws — failures land in
  /// Outcome::error.
  Outcome RunGroup(std::span<const JobSpec* const> group);

  /// Resolves a job's effective backend name and validates it (must be
  /// registered and support the service's field).
  const std::string& ResolveEngineName(const ExpJobOptions& options) const;
  std::shared_ptr<const MmmEngine> AcquireEngine(
      const std::string& engine_name, const bignum::BigUInt& modulus);

  const std::string& engine_name() const { return engine_name_; }
  const EngineOptions& engine_options() const { return engine_options_; }

 private:
  /// Validates a modulus for this core's field (throws
  /// std::invalid_argument), same predicate the engine factory applies.
  void ValidateModulus(const bignum::BigUInt& modulus) const;
  /// Whether the job's backend models pairable dual-channel streams.
  bool Pairable(const ExpJobOptions& options) const;
  bignum::BigUInt EffectiveExponent(const JobSpec& spec);
  /// Publishes one executed group's EngineStats into the engine.*
  /// counters (a pair's shared issue accounting is counted once).
  void PublishGroupStats(const EngineStats& stats);

  std::string engine_name_;
  EngineOptions engine_options_;

  std::mutex blind_mu_;  // guards blind_rng_ only
  bignum::RandomBigUInt blind_rng_;

  std::mutex cache_mu_;  // independent of the service mutex
  LruCache<std::string, std::shared_ptr<const MmmEngine>> cache_;

  struct {
    obs::Counter engine_cycles;
    obs::Counter paper_model_cycles;
    obs::Counter mmm_invocations;
    obs::Counter squarings;
    obs::Counter multiplications;
    obs::Counter cache_hits;
    obs::Counter cache_misses;
    obs::Counter cache_evictions;
  } metrics_;
};

/// The jobs.* / issues.* counters both shells publish.  Binding them
/// also registers the jobs.conservation invariant (submitted == completed
/// + cancelled on a drained service).
struct JobMetrics {
  explicit JobMetrics(obs::Registry& registry);
  /// Counts one executed group: one paired issue when it co-scheduled,
  /// otherwise one single issue per job.
  void CountGroup(bool paired, std::size_t jobs);

  obs::Counter submitted;
  obs::Counter completed;
  obs::Counter cancelled;  ///< deadline expired before engine dispatch
  obs::Counter pair_issues;
  obs::Counter single_issues;
};

/// Thread-safe batched/async exponentiation service.
///
/// Jobs execute on the registry backend named in Options (bit-identical
/// across backends, with cycles charged per each engine's validated
/// model), so the service is usable at RSA sizes while still reporting
/// hardware-faithful cycle accounting per job.
class ExpService {
 public:
  struct Options {
    std::size_t workers = 2;  ///< worker threads (>= 1; each owns one array)
    /// Distinct moduli whose engines stay precomputed.
    std::size_t engine_cache_capacity = 8;
    /// Issue two equal-length queued jobs per array pass (3l+5 per MMM
    /// pair); disable to force one job per pass (for A/B benches).  Jobs
    /// on a backend without pairable streams
    /// (EngineCaps::pairable_streams false — the word-serial datapaths)
    /// always issue solo regardless, so no backend reports fictitious
    /// dual-channel throughput.
    bool enable_pairing = true;
    /// Registry name of the multiplication backend a job runs on when it
    /// does not carry its own ExpJobOptions::engine_name override.
    std::string engine_name = "bit-serial";
    /// Backend construction options; field = kGf2 turns the service into
    /// a GF(2^m) field-exponentiation service (needs a dual-field
    /// backend; the constructor throws on a capability mismatch).  These
    /// options apply to per-job engine overrides too.
    EngineOptions engine_options;
    /// Seed of the service's exponent-blinding stream (deterministic;
    /// used only by jobs that request ExpJobOptions::exponent_blind_order).
    std::uint64_t blind_seed = 0x0b11d5eedull;

    // --- scheduler knobs -----------------------------------------------
    /// Ticks (nanoseconds on the default clock) a lone hot-key job may
    /// be held waiting for a pairing partner before the age-based unpair
    /// timeout releases it solo.
    std::uint64_t unpair_timeout = 200'000;
    /// Idle workers steal the oldest group from other deques.
    bool work_stealing = true;
    /// Upper bound of one adaptive batch claim (>= 1).
    std::size_t max_batch = 8;
    /// Injected tick source for the scheduler's timing decisions; null
    /// uses a steady nanosecond clock.  Tests inject a ManualClock (the
    /// timed waits then poll).  Must outlive the service.
    const Clock* clock = nullptr;
    /// Fault-injection/observability hook: called by each worker thread,
    /// outside the service lock, immediately before it executes an issue
    /// group.  The chaos harness uses it to stall a worker; it must not
    /// call back into the service.  Null disables it.
    std::function<void(std::size_t worker)> worker_observer;

    // --- observability -------------------------------------------------
    /// Metrics registry absorbing every service counter (jobs.*,
    /// issues.*, engine.*, sched.*) behind stable dotted names.  Null:
    /// the service owns a private registry.  registry() reads whichever
    /// is in use.  Must outlive the service.
    obs::Registry* registry = nullptr;
    /// Span tracer for the job lifecycle (job.submit, sched.*, job.run,
    /// job.cancelled).  Null disables tracing; a disabled tracer costs
    /// one relaxed load per site.  Must outlive the service.
    obs::Tracer* tracer = nullptr;
  };

  using JobOptions = ExpJobOptions;
  using Result = ExpResult;
  using Callback = std::function<void(const Result&)>;

  ExpService() : ExpService(Options{}) {}
  explicit ExpService(Options options);
  /// Drains every queued job and every posted continuation, then joins
  /// the workers — no future is abandoned, and no callback or
  /// continuation runs after destruction completes.
  ~ExpService();

  ExpService(const ExpService&) = delete;
  ExpService& operator=(const ExpService&) = delete;

  /// Enqueues one job; the optional callback runs on the worker thread
  /// after every future of the job's issue group is fulfilled, and any
  /// exception it throws is contained (it cannot withhold or poison a
  /// future).  Throws std::invalid_argument for an invalid modulus (GF(p):
  /// even or <= 1; GF(2^m): deg(f) < 2 or f(0) != 1).
  std::future<Result> Submit(bignum::BigUInt modulus, bignum::BigUInt base,
                             bignum::BigUInt exponent, Callback callback = {});

  /// Enqueues one job with per-job options (engine override and/or
  /// exponent blinding).  Throws std::invalid_argument for an invalid
  /// modulus, an unknown engine name, or a field-capability mismatch.
  std::future<Result> Submit(bignum::BigUInt modulus, bignum::BigUInt base,
                             bignum::BigUInt exponent, JobOptions options,
                             Callback callback = {});

  /// Enqueues two jobs, each as Submit(modulus, base, exponent, options,
  /// callback) would, under one acquisition of the queue lock, so no
  /// worker can claim the first before the second is queued.  Two
  /// equal-length pairable jobs submitted to an idle pool therefore always
  /// meet in the scheduler's pair-at-submit (the two CRT halves of one
  /// signature) instead of racing a waking worker.  Throws as Submit does,
  /// before either job is queued.
  std::pair<std::future<Result>, std::future<Result>> SubmitTogether(
      bignum::BigUInt modulus_a, bignum::BigUInt base_a,
      bignum::BigUInt exponent_a, Callback callback_a,
      bignum::BigUInt modulus_b, bignum::BigUInt base_b,
      bignum::BigUInt exponent_b, Callback callback_b,
      const JobOptions& options);

  /// Enqueues bases[i]^exponents[i] mod modulus for every i (sizes must
  /// match), all under one acquisition of the queue lock as in
  /// SubmitTogether, so a same-modulus batch pairs with itself.
  std::vector<std::future<Result>> SubmitBatch(
      const bignum::BigUInt& modulus, std::span<const bignum::BigUInt> bases,
      std::span<const bignum::BigUInt> exponents);

  /// Hands a continuation to the service's continuation thread — the
  /// pipelined-CRT hook: a job callback posts recombination + fault
  /// check here so the worker's array moves straight to the next issue.
  /// Continuations run in post order; exceptions are contained; the
  /// destructor drains every posted continuation before returning.
  /// Continuations must not Submit new jobs once destruction has begun.
  void Post(std::function<void()> continuation);

  /// Blocks until every job submitted so far has completed.
  void Wait();

  /// The metrics registry every counter lives in: Options::registry when
  /// provided, the service's private one otherwise.  Read it with
  /// registry().Snapshot().  Every name is registered at construction, so
  /// a snapshot lists each one even at 0: the jobs.* / issues.* of
  /// JobMetrics, the engine.* of ExecutionCore and the sched.* of
  /// StealScheduler::Config::registry — plus the jobs.conservation
  /// invariant (submitted == completed + cancelled on a drained
  /// service).
  obs::Registry& registry() const { return *registry_; }

  const Options& options() const { return options_; }

 private:
  using Job = ExecutionCore::Job;

  std::uint64_t NowTicks() const;
  /// Hands the job to the scheduler; the caller holds mu_ and notifies.
  std::future<Result> EnqueueLocked(Job job);
  void WorkerLoop(std::size_t index);
  /// Acquires the next issue batch for `index`, waiting as needed.
  /// Returns false when the worker should exit (stopping and drained).
  bool AcquireIssues(std::size_t index, std::unique_lock<std::mutex>& lk,
                     std::vector<StealScheduler::Issue>* issues);
  bool DrainedLocked() const { return sched_.Idle() && in_flight_ == 0; }
  void ContinuationLoop();

  Options options_;
  /// Backs registry() when Options::registry is null (declared before
  /// core_, which publishes into it).
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  ExecutionCore core_;
  SteadyClock steady_clock_;
  const Clock* clock_ = nullptr;

  JobMetrics metrics_;

  mutable std::mutex mu_;            // guards everything below it
  std::condition_variable cv_;       // queue became non-empty / stopping
  std::condition_variable idle_cv_;  // queue drained and no job in flight
  StealScheduler sched_;
  std::unordered_map<std::uint64_t, Job> pending_;
  std::uint64_t next_id_ = 1;
  std::size_t in_flight_ = 0;
  bool stop_ = false;

  std::mutex cont_mu_;  // guards the continuation queue only
  std::condition_variable cont_cv_;
  std::queue<std::function<void()>> continuations_;
  bool cont_stop_ = false;

  std::thread cont_thread_;
  std::vector<std::thread> workers_;  // last member: joins before teardown
};

// ---------------------------------------------------------------------------
// DeterministicExecutor — the scheduler in virtual time
// ---------------------------------------------------------------------------

/// Single-threaded discrete-event replay of the service: the same
/// ExecutionCore runs the jobs, the same StealScheduler makes every
/// dispatch decision and the same lifecycle helpers resolve them, but
/// time is a virtual tick counter and "workers" are simulated array
/// channels whose job durations are the modelled engine cycles.  Every
/// stealing / hold / unpair / batch decision is therefore an exact,
/// replayable function of the submitted workload — the property tests
/// and the multi-tenant stress bench run here, immune to host timing.
///
/// Usage: schedule arrivals with SubmitAt()/PostAt(), then
/// RunUntilIdle().  Callbacks fire at the job's virtual completion tick
/// and may schedule further work (at >= Now()).
class DeterministicExecutor {
 public:
  using Result = ExpResult;
  using Callback = std::function<void(const Result&)>;

  explicit DeterministicExecutor(ExpService::Options options);

  std::future<Result> SubmitAt(std::uint64_t tick, bignum::BigUInt modulus,
                               bignum::BigUInt base, bignum::BigUInt exponent,
                               ExpJobOptions job_options = {},
                               Callback callback = {});
  /// Runs `continuation` at the given virtual tick (clamped to Now()).
  void PostAt(std::uint64_t tick, std::function<void()> continuation);

  /// Processes events until nothing remains; Now() then holds the last
  /// completion tick (the virtual makespan).
  void RunUntilIdle();
  std::uint64_t Now() const { return now_; }

  /// Per-job completion record — the bench derives latency percentiles
  /// and the tests assert scheduling decisions from these.
  struct JobRecord {
    std::uint64_t id = 0;
    std::uint64_t submit_tick = 0;
    std::uint64_t start_tick = 0;
    std::uint64_t finish_tick = 0;
    std::size_t worker = 0;
    bool paired = false;
    bool stolen = false;
    bool unpaired_by_timeout = false;
    /// Deadline expired in queue; finish_tick is the exact cancellation
    /// tick (== the deadline when it expired while queued/held).
    bool cancelled = false;
  };
  const std::vector<JobRecord>& Records() const { return records_; }

  /// The metrics registry (Options::registry or the executor's private
  /// one); same dotted names as the threaded service.
  obs::Registry& registry() const { return *registry_; }

 private:
  using Job = ExecutionCore::Job;
  struct Event {
    std::uint64_t tick = 0;
    std::uint64_t seq = 0;  ///< schedule order: total, deterministic tie-break
    std::function<void()> action;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.tick != b.tick ? a.tick > b.tick : a.seq > b.seq;
    }
  };

  void Schedule(std::uint64_t tick, std::function<void()> action);
  /// Deadline event: if `id` is still queued (un-claimed, possibly held
  /// for pairing), releases it from the scheduler and resolves it
  /// cancelled at the current tick.  No-op once the job was dispatched.
  void CancelIfQueued(std::uint64_t id);
  /// Counts, traces and records `jobs` as deadline-cancelled at the
  /// current tick, then resolves them.
  void FinishCancelled(std::vector<Job>& jobs);
  void TryDispatch();
  void ScheduleHoldWake();

  ExpService::Options options_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  ExecutionCore core_;
  JobMetrics metrics_;
  StealScheduler sched_;

  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::uint64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool running_ = false;

  std::unordered_map<std::uint64_t, Job> pending_;
  std::uint64_t next_id_ = 1;
  std::vector<bool> worker_busy_;
  std::uint64_t hold_wake_tick_ = 0;
  bool hold_wake_scheduled_ = false;
  std::vector<JobRecord> records_;
};

}  // namespace mont::core
