#include "core/exp_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "bignum/mont_lanes.hpp"
#include "core/interleaved.hpp"

namespace mont::core {

using bignum::BigUInt;

namespace {

// ---------------------------------------------------------------------------
// ExpScan — one exponentiation unrolled into its MMM dependency chain
// ---------------------------------------------------------------------------

// Left-to-right square-and-multiply (§4.5, Algorithm 3) as a sequence of
// MMMs: Next() names the one this job needs next (domain entry, square,
// multiply by the base, domain exit) and Advance() records it in the job's
// EngineStats and moves on.  The scan owns the exponent walk and every
// stats decision; the operands live with whoever computes the products
// (ModExpStream keeps BigUInts, PairOnLanes keeps 52-bit digits).  Every
// MMM depends on the previous one *of the same job*, so two scans can be
// zipped issue-for-issue onto the two channels of one array without any
// cross-job hazard.
class ExpScan {
 public:
  enum class Op { kPre, kSquare, kMultiply, kPost, kDone };

  /// `exponent` must outlive the scan; exponent 0 needs no MMM at all.
  ExpScan(const BigUInt& exponent, std::size_t l, EngineStats* stats)
      : exponent_(exponent), l_(l), stats_(stats) {
    if (!exponent_.IsZero()) {
      next_i_ = exponent_.BitLength() - 1;
      op_ = Op::kPre;
    }
  }

  Op Next() const { return op_; }
  bool Done() const { return op_ == Op::kDone; }

  /// The product Next() asked for has been computed and stored.
  void Advance() {
    if (stats_ != nullptr) ++stats_->mmm_invocations;
    switch (op_) {
      case Op::kPre:
        AdvanceIteration();
        return;
      case Op::kSquare:
        ++squarings_;
        if (stats_ != nullptr) ++stats_->squarings;
        if (exponent_.Bit(next_i_)) {
          op_ = Op::kMultiply;
        } else {
          AdvanceIteration();
        }
        return;
      case Op::kMultiply:
        ++multiplications_;
        if (stats_ != nullptr) ++stats_->multiplications;
        AdvanceIteration();
        return;
      case Op::kPost:
        if (stats_ != nullptr) {
          // Accumulate this job's delta (like every other EngineStats
          // field), not a figure recomputed from the cumulative counters:
          // callers may reuse one stats struct across jobs.
          stats_->paper_model_cycles +=
              ExponentiationCycles(l_, squarings_, multiplications_);
        }
        op_ = Op::kDone;
        return;
      case Op::kDone:
        break;
    }
    throw std::logic_error("ExpScan: advance after completion");
  }

 private:
  // Exponent bit i is handled by the iteration entered when next_i_ == i;
  // the scan covers bits BitLength()-2 .. 0 (the top bit is the initial A).
  void AdvanceIteration() {
    if (next_i_ == 0) {
      op_ = Op::kPost;
    } else {
      --next_i_;
      op_ = Op::kSquare;
    }
  }

  const BigUInt& exponent_;
  std::size_t l_;
  EngineStats* stats_;
  std::uint64_t squarings_ = 0;        // this job's own operation counts,
  std::uint64_t multiplications_ = 0;  // independent of the caller's struct
  std::size_t next_i_ = 0;
  Op op_ = Op::kDone;
};

// One scan's operands as BigUInts against one MmmEngine, which supplies
// the field semantics (GF(p) or GF(2^m)) via MontFactor/Reduce:
// NextOperands() exposes the operands of the next MMM, Consume() stores
// the product and advances the scan.
class ModExpStream {
 public:
  ModExpStream(const MmmEngine& engine, const BigUInt& base,
               const BigUInt& exponent, EngineStats* stats)
      : engine_(engine), scan_(exponent, engine.l(), stats) {
    if (scan_.Done()) {
      result_ = engine_.Reduce(BigUInt{1});
    } else {
      m_ = engine_.Reduce(base);
    }
  }

  const ExpScan& Scan() const { return scan_; }
  bool Done() const { return scan_.Done(); }

  /// Operands of the next MMM; pointers stay valid until Consume().
  void NextOperands(const BigUInt** x, const BigUInt** y) const {
    switch (scan_.Next()) {
      case ExpScan::Op::kPre:
        *x = &m_;
        *y = &engine_.MontFactor();
        return;
      case ExpScan::Op::kSquare:
        *x = &a_;
        *y = &a_;
        return;
      case ExpScan::Op::kMultiply:
        *x = &a_;
        *y = &m_mont_;
        return;
      case ExpScan::Op::kPost:
        *x = &a_;
        *y = &one_;
        return;
      case ExpScan::Op::kDone:
        break;
    }
    throw std::logic_error("ModExpStream: no operands after completion");
  }

  void Consume(BigUInt product) {
    switch (scan_.Next()) {
      case ExpScan::Op::kPre:
        m_mont_ = std::move(product);
        a_ = m_mont_;
        break;
      case ExpScan::Op::kSquare:
      case ExpScan::Op::kMultiply:
        a_ = std::move(product);
        break;
      case ExpScan::Op::kPost:
        result_ = engine_.Reduce(std::move(product));
        break;
      case ExpScan::Op::kDone:
        throw std::logic_error("ModExpStream: consume after completion");
    }
    scan_.Advance();
  }

  const BigUInt& Result() const { return result_; }

 private:
  const MmmEngine& engine_;
  ExpScan scan_;
  const BigUInt one_{1};
  BigUInt m_;       // base, canonically reduced
  BigUInt m_mont_;  // base in the Montgomery domain
  BigUInt a_;       // accumulator
  BigUInt result_;
};

/// Runs one stream to completion on its own (single-channel issues only),
/// charging the engine's per-multiply model per MMM into `stats`.
BigUInt RunSoloStream(const MmmEngine& engine, const BigUInt& base,
                      const BigUInt& exponent, EngineStats* stats) {
  ModExpStream stream(engine, base, exponent, stats);
  std::uint64_t issues = 0;
  while (!stream.Done()) {
    const BigUInt* x = nullptr;
    const BigUInt* y = nullptr;
    stream.NextOperands(&x, &y);
    stream.Consume(engine.Multiply(*x, *y));
    ++issues;
  }
  if (stats != nullptr) {
    stats->single_issues += issues;
    stats->engine_cycles += issues * engine.MultiplyCyclesModel();
  }
  return stream.Result();
}

/// The issue sequence of a paired exponentiation: while both scans still
/// have work every issue carries one MMM of each, a dual-channel pair
/// charged one cycle over the slower channel's multiply (3l+5 on the
/// paper's array, whose model is 3l+4); once one scan drains, the other
/// issues singly at its engine's model.  issue(a_live, b_live) computes
/// the live channels' products and advances their scans.
template <typename Issue>
void ZipIssues(const ExpScan& a, const ExpScan& b, std::uint64_t cost_a,
               std::uint64_t cost_b, EngineStats& stats, Issue&& issue) {
  const std::uint64_t pair_cost = std::max(cost_a, cost_b) + 1;
  while (!a.Done() || !b.Done()) {
    const bool a_live = !a.Done();
    const bool b_live = !b.Done();
    issue(a_live, b_live);
    if (a_live && b_live) {
      ++stats.paired_issues;
      stats.engine_cycles += pair_cost;
    } else {
      ++stats.single_issues;
      stats.engine_cycles += a_live ? cost_a : cost_b;
    }
  }
}

/// A paired exponentiation on bignum::MontLanes, channel c = engines[c]:
/// each channel's operands stay 52-bit digits in its lane from domain
/// entry to domain exit, and every issue is one lane multiply.  A drained
/// channel's lane keeps squaring its last product, which nothing reads.
void PairOnLanes(const std::array<const MmmEngine*, 2>& engines,
                 const std::array<const BigUInt*, 2>& bases,
                 const std::array<const BigUInt*, 2>& exponents,
                 PairedExpResult& out) {
  using Digit = bignum::MontLanes::Digit;
  const bignum::MontLanes lanes(*engines[0]->Kernel(), *engines[1]->Kernel());
  const std::size_t w = lanes.OperandWords();
  // Interleaved operands: the reduced base, the domain-entry factor, the
  // base in the Montgomery domain, the accumulator and 1; then scratch.
  std::vector<Digit> buffer(5 * w + lanes.ScratchWords(), 0);
  Digit* const base = buffer.data();
  Digit* const factor = base + w;
  Digit* const base_mont = factor + w;
  Digit* const acc = base_mont + w;
  Digit* const one = acc + w;
  Digit* const scratch = one + w;

  std::array<ExpScan, 2> scans = {
      ExpScan(*exponents[0], engines[0]->l(), &out.stats_a),
      ExpScan(*exponents[1], engines[1]->l(), &out.stats_b)};
  const std::array<BigUInt*, 2> results = {&out.a, &out.b};
  for (std::size_t c = 0; c < 2; ++c) {
    if (scans[c].Done()) *results[c] = engines[c]->Reduce(BigUInt{1});
    lanes.Load(base, c, engines[c]->Reduce(*bases[c]));
    lanes.Load(factor, c, engines[c]->MontFactor());
    lanes.Load(one, c, BigUInt{1});
  }

  ZipIssues(scans[0], scans[1], engines[0]->MultiplyCyclesModel(),
            engines[1]->MultiplyCyclesModel(), out.stats, [&](bool, bool) {
    bignum::MontLanes::Sources x{}, y{};
    for (std::size_t c = 0; c < 2; ++c) {
      switch (scans[c].Next()) {
        case ExpScan::Op::kPre:
          x[c] = base;
          y[c] = factor;
          break;
        case ExpScan::Op::kMultiply:
          x[c] = acc;
          y[c] = base_mont;
          break;
        case ExpScan::Op::kPost:
          x[c] = acc;
          y[c] = one;
          break;
        case ExpScan::Op::kSquare:
        case ExpScan::Op::kDone:
          x[c] = acc;
          y[c] = acc;
          break;
      }
    }
    lanes.Multiply(acc, x, y, scratch);
    for (std::size_t c = 0; c < 2; ++c) {
      if (scans[c].Done()) continue;
      if (scans[c].Next() == ExpScan::Op::kPre) {
        lanes.CopyLane(base_mont, acc, c);
      } else if (scans[c].Next() == ExpScan::Op::kPost) {
        *results[c] = engines[c]->Reduce(lanes.Get(acc, c));
      }
      scans[c].Advance();
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// PairedModExp
// ---------------------------------------------------------------------------

PairedExpResult PairedModExp(const MmmEngine& engine_a, const BigUInt& base_a,
                             const BigUInt& exp_a, const MmmEngine& engine_b,
                             const BigUInt& base_b, const BigUInt& exp_b,
                             InterleavedMmmc* array) {
  if (engine_a.l() != engine_b.l()) {
    throw std::invalid_argument(
        "PairedModExp: moduli must have equal bit length to share an array");
  }
  if (engine_a.Field() != engine_b.Field()) {
    throw std::invalid_argument(
        "PairedModExp: both jobs must operate in the same field");
  }
  for (const MmmEngine* engine : {&engine_a, &engine_b}) {
    if (!engine->Caps().pairable_streams) {
      throw std::invalid_argument(
          std::string("PairedModExp: backend '") +
          std::string(engine->Name()) +
          "' has no dual-channel variant to co-schedule on");
    }
  }
  const std::size_t l = engine_a.l();
  if (array != nullptr) {
    if (array->l() != l || array->Modulus(0) != engine_a.Modulus() ||
        array->Modulus(1) != engine_b.Modulus()) {
      throw std::invalid_argument(
          "PairedModExp: array channels must match the engines' moduli");
    }
    // The array multiplies with R = 2^(l+2); an engine with another
    // Montgomery parameter (word-mont, high-radix, blum-paar) would feed
    // the streams an inconsistent domain-entry factor.
    for (const MmmEngine* engine : {&engine_a, &engine_b}) {
      const BigUInt r = BigUInt::PowerOfTwo(l + 2);
      if (engine->MontFactor() != (r * r) % engine->Modulus()) {
        throw std::invalid_argument(
            "PairedModExp: cycle-accurate array needs R = 2^(l+2) engines");
      }
    }
  }
  PairedExpResult out;
  const bignum::MontKernel* kernel_a = engine_a.Kernel();
  const bignum::MontKernel* kernel_b = engine_b.Kernel();
  if (array == nullptr && kernel_a != nullptr && kernel_b != nullptr &&
      bignum::MontLanes::Supported() &&
      bignum::MontLanes::Accepts(*kernel_a, *kernel_b)) {
    PairOnLanes({&engine_a, &engine_b}, {&base_a, &base_b}, {&exp_a, &exp_b},
                out);
    return out;
  }

  ModExpStream stream_a(engine_a, base_a, exp_a, &out.stats_a);
  ModExpStream stream_b(engine_b, base_b, exp_b, &out.stats_b);
  ZipIssues(stream_a.Scan(), stream_b.Scan(), engine_a.MultiplyCyclesModel(),
            engine_b.MultiplyCyclesModel(), out.stats,
            [&](bool a_live, bool b_live) {
    if (a_live && b_live) {
      // Dual-channel issue: one MMM of each job.
      const BigUInt *xa = nullptr, *ya = nullptr, *xb = nullptr, *yb = nullptr;
      stream_a.NextOperands(&xa, &ya);
      stream_b.NextOperands(&xb, &yb);
      BigUInt ra, rb;
      if (array != nullptr) {
        auto pair = array->MultiplyPair(*xa, *ya, *xb, *yb);
        ra = std::move(pair.a);
        rb = std::move(pair.b);
      } else {
        ra = engine_a.Multiply(*xa, *ya);
        rb = engine_b.Multiply(*xb, *yb);
      }
      stream_a.Consume(std::move(ra));
      stream_b.Consume(std::move(rb));
      return;
    }
    // One stream has drained: the leftover issues singly.
    ModExpStream& stream = a_live ? stream_a : stream_b;
    const MmmEngine& engine = a_live ? engine_a : engine_b;
    const BigUInt *x = nullptr, *y = nullptr;
    stream.NextOperands(&x, &y);
    BigUInt r;
    if (array != nullptr) {
      const BigUInt zero;
      auto pair = a_live ? array->MultiplyPair(*x, *y, zero, zero)
                         : array->MultiplyPair(zero, zero, *x, *y);
      r = a_live ? std::move(pair.a) : std::move(pair.b);
    } else {
      r = engine.Multiply(*x, *y);
    }
    stream.Consume(std::move(r));
  });
  out.a = stream_a.Result();
  out.b = stream_b.Result();
  return out;
}

// ---------------------------------------------------------------------------
// ExecutionCore
// ---------------------------------------------------------------------------

ExecutionCore::ExecutionCore(std::string engine_name,
                             EngineOptions engine_options,
                             std::size_t cache_capacity,
                             std::uint64_t blind_seed,
                             obs::Registry* registry)
    : engine_name_(std::move(engine_name)),
      engine_options_(engine_options),
      blind_rng_(blind_seed),
      cache_(cache_capacity == 0 ? 1 : cache_capacity) {
  if (registry != nullptr) {
    metrics_.engine_cycles = registry->GetCounter("engine.cycles");
    metrics_.paper_model_cycles =
        registry->GetCounter("engine.paper_model_cycles");
    metrics_.mmm_invocations = registry->GetCounter("engine.mmm_invocations");
    metrics_.squarings = registry->GetCounter("engine.squarings");
    metrics_.multiplications = registry->GetCounter("engine.multiplications");
    metrics_.cache_hits = registry->GetCounter("engine.cache_hits");
    metrics_.cache_misses = registry->GetCounter("engine.cache_misses");
    metrics_.cache_evictions = registry->GetCounter("engine.cache_evictions");
  }
  // Resolve the backend up front so a bad name or a capability mismatch
  // (e.g. a GF(2^m) service on a GF(p)-only backend) fails at
  // construction, not on the first worker thread.
  const EngineRegistry::Entry* entry =
      EngineRegistry::Global().Find(engine_name_);
  if (entry == nullptr) {
    throw std::invalid_argument("ExpService: unknown engine '" + engine_name_ +
                                "'");
  }
  if (engine_options_.field == EngineField::kGf2 && !entry->caps.gf2) {
    throw std::invalid_argument("ExpService: engine '" + engine_name_ +
                                "' does not support GF(2^m)");
  }
}

void ExecutionCore::ValidateModulus(const BigUInt& modulus) const {
  // Same predicate the registry factory will apply on the worker thread —
  // fail at Submit time instead of poisoning a future later.
  ValidateEngineModulus(modulus, engine_options_.field, "ExpService");
}

const std::string& ExecutionCore::ResolveEngineName(
    const ExpJobOptions& options) const {
  if (options.engine_name.empty()) return engine_name_;
  // Per-job override: apply the same checks the constructor applied to
  // the default backend, at Submit time instead of on a worker thread.
  const EngineRegistry::Entry* entry =
      EngineRegistry::Global().Find(options.engine_name);
  if (entry == nullptr) {
    throw std::invalid_argument("ExpService: unknown engine '" +
                                options.engine_name + "'");
  }
  if (engine_options_.field == EngineField::kGf2 && !entry->caps.gf2) {
    throw std::invalid_argument("ExpService: engine '" + options.engine_name +
                                "' does not support GF(2^m)");
  }
  return options.engine_name;
}

bool ExecutionCore::Pairable(const ExpJobOptions& options) const {
  return EngineRegistry::Global()
      .Find(ResolveEngineName(options))
      ->caps.pairable_streams;
}

ExecutionCore::Job ExecutionCore::MakeJob(
    BigUInt modulus, BigUInt base, BigUInt exponent, ExpJobOptions options,
    std::function<void(const ExpResult&)> callback) const {
  ValidateModulus(modulus);
  Job job;
  job.pairable = Pairable(options);
  if (!options.exponent_blind_order.IsZero() &&
      options.exponent_blind_bits == 0) {
    throw std::invalid_argument(
        "ExpService: exponent_blind_bits must be >= 1 when blinding");
  }
  job.spec.modulus = std::move(modulus);
  job.spec.base = std::move(base);
  job.spec.exponent = std::move(exponent);
  job.spec.options = std::move(options);
  job.callback = std::move(callback);
  return job;
}

BigUInt ExecutionCore::EffectiveExponent(const JobSpec& spec) {
  if (spec.options.exponent_blind_order.IsZero()) return spec.exponent;
  BigUInt k;
  {
    std::lock_guard<std::mutex> lk(blind_mu_);
    k = blind_rng_.ExactBits(spec.options.exponent_blind_bits);
  }
  return spec.exponent + k * spec.options.exponent_blind_order;
}

std::shared_ptr<const MmmEngine> ExecutionCore::AcquireEngine(
    const std::string& engine_name, const BigUInt& modulus) {
  // Hex digits never collide with the separator, so (engine, modulus)
  // pairs key uniquely — jobs on different backends share one cache.
  const std::string key = engine_name + ':' + modulus.ToHex();
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (auto* hit = cache_.Get(key)) {
      metrics_.cache_hits.Increment();
      return *hit;
    }
    metrics_.cache_misses.Increment();
  }
  // The R^2-mod-N precomputation (and for the simulated backends the
  // netlist build) is the expensive step the cache amortizes — do it
  // outside the lock so a miss never stalls workers hitting other moduli.
  // Two workers racing on the same cold modulus may both construct; the
  // first Put wins and the loser adopts it.
  std::shared_ptr<const MmmEngine> engine =
      MakeEngine(engine_name, modulus, engine_options_);
  std::lock_guard<std::mutex> lk(cache_mu_);
  if (cache_.Contains(key)) {
    // The race loser's second lookup counts as a hit, matching the
    // LruCache-internal tallies the registry counters mirror.
    metrics_.cache_hits.Increment();
    return *cache_.Get(key);
  }
  const std::uint64_t evictions_before = cache_.Evictions();
  cache_.Put(key, engine);
  metrics_.cache_evictions.Add(cache_.Evictions() - evictions_before);
  return engine;
}

std::uint64_t ExecutionCore::CacheHits() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  return cache_.Hits();
}

std::uint64_t ExecutionCore::CacheMisses() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  return cache_.Misses();
}

std::uint64_t ExecutionCore::CacheEvictions() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  return cache_.Evictions();
}

void ExecutionCore::PublishGroupStats(const EngineStats& stats) {
  metrics_.engine_cycles.Add(stats.engine_cycles);
  metrics_.paper_model_cycles.Add(stats.paper_model_cycles);
  metrics_.mmm_invocations.Add(stats.mmm_invocations);
  metrics_.squarings.Add(stats.squarings);
  metrics_.multiplications.Add(stats.multiplications);
}

ExecutionCore::Outcome ExecutionCore::RunGroup(
    std::span<const JobSpec* const> group) {
  Outcome outcome;
  outcome.results.resize(group.size());
  try {
    if (group.size() == 2) {
      const auto engine_a =
          AcquireEngine(ResolveEngineName(group[0]->options),
                        group[0]->modulus);
      const auto engine_b =
          AcquireEngine(ResolveEngineName(group[1]->options),
                        group[1]->modulus);
      // Per-job engine overrides can bond two backends on one issue —
      // any mix works as long as both model pairable array streams of
      // equal operand length (a bonded SubmitPair of unequal-capability
      // jobs falls back to solo issues instead of failing).
      if (engine_a->Caps().pairable_streams &&
          engine_b->Caps().pairable_streams &&
          engine_a->l() == engine_b->l() &&
          engine_a->Field() == engine_b->Field()) {
        PairedExpResult paired = PairedModExp(
            *engine_a, group[0]->base, EffectiveExponent(*group[0]),
            *engine_b, group[1]->base, EffectiveExponent(*group[1]));
        outcome.results[0].value = std::move(paired.a);
        outcome.results[1].value = std::move(paired.b);
        outcome.results[0].stats = paired.stats_a;
        outcome.results[1].stats = paired.stats_b;
        for (ExpResult& result : outcome.results) {
          result.paired = true;
          // The group's array occupancy is the closest per-job
          // measurement pairing admits (the two MMM streams are
          // interleaved cycle by cycle); both partners report the shared
          // issue accounting.
          result.stats.paired_issues = paired.stats.paired_issues;
          result.stats.single_issues = paired.stats.single_issues;
          result.stats.engine_cycles = paired.stats.engine_cycles;
        }
        outcome.paired = true;
        // Publish once per group: per-job operation counts from both
        // streams plus the *shared* issue accounting (counting it per
        // result would double the array occupancy).
        EngineStats group_stats = paired.stats_a;
        group_stats += paired.stats_b;
        group_stats.paired_issues = paired.stats.paired_issues;
        group_stats.single_issues = paired.stats.single_issues;
        group_stats.engine_cycles = paired.stats.engine_cycles;
        PublishGroupStats(group_stats);
      }
    }
    if (!outcome.paired) {
      for (std::size_t i = 0; i < group.size(); ++i) {
        const auto engine = AcquireEngine(
            ResolveEngineName(group[i]->options), group[i]->modulus);
        ExpResult& result = outcome.results[i];
        result.value =
            RunSoloStream(*engine, group[i]->base,
                          EffectiveExponent(*group[i]), &result.stats);
        PublishGroupStats(result.stats);
      }
    }
  } catch (...) {
    outcome.error = std::current_exception();
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// The job lifecycle both shells share
// ---------------------------------------------------------------------------

JobMetrics::JobMetrics(obs::Registry& registry)
    : submitted(registry.GetCounter("jobs.submitted")),
      completed(registry.GetCounter("jobs.completed")),
      cancelled(registry.GetCounter("jobs.cancelled")),
      pair_issues(registry.GetCounter("issues.paired")),
      single_issues(registry.GetCounter("issues.single")) {
  registry.AddInvariant("jobs.conservation", {"jobs.submitted"},
                        {"jobs.completed", "jobs.cancelled"});
}

void JobMetrics::CountGroup(bool paired, std::size_t jobs) {
  // Issue accounting records what actually ran: a 2-job group whose
  // backends could not co-schedule executed as two solo issues, never as
  // fictitious dual-channel throughput.
  if (paired) {
    pair_issues.Increment();
  } else {
    single_issues.Add(jobs);
  }
}

namespace {

using Job = ExecutionCore::Job;
using PendingJobs = std::unordered_map<std::uint64_t, Job>;

ExpService::Options Normalized(ExpService::Options options) {
  if (options.workers == 0) options.workers = 1;
  if (options.max_batch == 0) options.max_batch = 1;
  return options;
}

StealScheduler::Config SchedulerConfig(const ExpService::Options& options,
                                       obs::Registry* registry) {
  StealScheduler::Config config;
  config.workers = options.workers;
  config.enable_pairing = options.enable_pairing;
  config.work_stealing = options.work_stealing;
  config.unpair_timeout = options.unpair_timeout;
  config.max_batch = options.max_batch;
  config.registry = registry;
  config.tracer = options.tracer;
  return config;
}

/// The id stamped on a job's trace events: options.trace_id, or the
/// shell-assigned job id.
std::uint64_t TraceId(const Job& job) {
  return job.spec.options.trace_id != 0 ? job.spec.options.trace_id : job.id;
}

/// Queues a job whose id is already assigned.  The pairing key is the
/// operand length: any two equal-length pairable jobs can share one
/// array's two channels.
void EnqueueJob(Job job, std::uint64_t now, StealScheduler& sched,
                PendingJobs& pending, JobMetrics& metrics,
                obs::Tracer* tracer) {
  job.submit_tick = now;
  const std::uint64_t id = job.id;
  const std::uint64_t key = job.spec.modulus.BitLength();
  if (tracer != nullptr && tracer->enabled()) {
    tracer->Instant("job.submit", TraceId(job), 0, now,
                    {{"job", id}, {"key", key}});
  }
  sched.Submit(id, key, job.pairable, now);
  metrics.submitted.Increment();
  pending.emplace(id, std::move(job));
}

/// Moves an acquired issue's jobs out of the pending table, in group order.
std::vector<Job> ClaimJobs(PendingJobs& pending,
                           const StealScheduler::Issue& issue) {
  std::vector<Job> jobs;
  jobs.reserve(issue.count);
  for (std::size_t i = 0; i < issue.count; ++i) {
    auto it = pending.find(issue.ids[i]);
    jobs.push_back(std::move(it->second));
    pending.erase(it);
  }
  return jobs;
}

/// The claim-time deadline gate — the last point before engine dispatch.
/// Moves every job whose deadline has passed at `now` out of `jobs` (the
/// live ones keep their group order) and returns them: they consume no
/// array time, and a pair with one expired half issues solo.
std::vector<Job> TakeExpired(std::vector<Job>& jobs, std::uint64_t now) {
  const auto live_end =
      std::stable_partition(jobs.begin(), jobs.end(), [now](const Job& job) {
        const std::uint64_t deadline = job.spec.options.deadline;
        return deadline == 0 || now < deadline;
      });
  std::vector<Job> expired(std::make_move_iterator(live_end),
                           std::make_move_iterator(jobs.end()));
  jobs.erase(live_end, jobs.end());
  return expired;
}

ExecutionCore::Outcome RunJobs(ExecutionCore& core,
                               const std::vector<Job>& jobs) {
  std::array<const ExecutionCore::JobSpec*, 2> specs{};
  for (std::size_t i = 0; i < jobs.size(); ++i) specs[i] = &jobs[i].spec;
  return core.RunGroup(std::span<const ExecutionCore::JobSpec* const>(
      specs.data(), jobs.size()));
}

/// One job.run span per job of an executed group, on track `track`.
void TraceRun(obs::Tracer* tracer, const std::vector<Job>& jobs,
              const ExecutionCore::Outcome& outcome,
              const StealScheduler::Issue& issue, std::uint64_t track,
              std::uint64_t start, std::uint64_t end) {
  if (tracer == nullptr || !tracer->enabled()) return;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const EngineStats& stats = outcome.results[i].stats;
    tracer->Complete("job.run", TraceId(jobs[i]), track, start, end,
                     {{"mmm_invocations", stats.mmm_invocations},
                      {"engine_cycles", stats.engine_cycles},
                      {"paired", outcome.paired ? 1u : 0u},
                      {"stolen", issue.stolen ? 1u : 0u}});
  }
}

/// One job.cancelled instant per deadline-cancelled job.
void TraceCancelled(obs::Tracer* tracer, const std::vector<Job>& jobs,
                    std::uint64_t track, std::uint64_t tick) {
  if (tracer == nullptr || !tracer->enabled()) return;
  for (const Job& job : jobs) {
    tracer->Instant("job.cancelled", TraceId(job), track, tick,
                    {{"job", job.id}});
  }
}

/// Runs a job's completion hook.  Callbacks are noexcept in spirit;
/// anything they throw is contained here.
void RunCallback(Job& job, const ExpResult& result) {
  if (!job.callback) return;
  try {
    job.callback(result);
  } catch (...) {
  }
}

/// Resolves an executed group.  Scheduling provenance rides on every
/// result, so callers can audit steal/unpair decisions per job.  Every
/// promise is fulfilled — with its value, or with the group's exception —
/// before any callback runs, so a callback can neither withhold nor
/// poison a partner job's future.
void ResolveGroup(std::vector<Job>& jobs, ExecutionCore::Outcome& outcome,
                  const StealScheduler::Issue& issue) {
  if (outcome.error != nullptr) {
    for (Job& job : jobs) job.promise.set_exception(outcome.error);
    return;
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ExpResult& result = outcome.results[i];
    result.stolen = issue.stolen;
    result.unpaired_by_timeout = issue.unpaired_by_timeout;
    jobs[i].promise.set_value(result);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    RunCallback(jobs[i], outcome.results[i]);
  }
}

/// Resolves deadline-cancelled jobs with the typed cancelled result —
/// never an exception, so pipelined callers (CRT halves) observe the
/// cancellation and can unwind.  Every promise, then every callback.
void ResolveCancelled(std::vector<Job>& jobs) {
  ExpResult cancelled;
  cancelled.cancelled = true;
  cancelled.stats.cancelled = 1;
  for (Job& job : jobs) job.promise.set_value(cancelled);
  for (Job& job : jobs) RunCallback(job, cancelled);
}

ExpService::Counters MakeCounters(const JobMetrics& metrics,
                                  const StealScheduler& sched,
                                  const ExecutionCore& core) {
  ExpService::Counters counters;
  counters.jobs_submitted = metrics.submitted.Value();
  counters.jobs_completed = metrics.completed.Value();
  counters.deadline_exceeded = metrics.cancelled.Value();
  counters.pair_issues = metrics.pair_issues.Value();
  counters.single_issues = metrics.single_issues.Value();
  const StealScheduler::Stats stats = sched.GetStats();
  counters.steals = stats.steals;
  counters.holds = stats.holds;
  counters.hold_pairs = stats.hold_pairs;
  counters.unpair_timeouts = stats.unpair_timeouts;
  counters.batch_acquires = stats.batch_acquires;
  counters.max_batch_claimed = stats.max_batch_claimed;
  counters.engine_cache_hits = core.CacheHits();
  counters.engine_cache_misses = core.CacheMisses();
  counters.engine_cache_evictions = core.CacheEvictions();
  return counters;
}

}  // namespace

// ---------------------------------------------------------------------------
// ExpService
// ---------------------------------------------------------------------------

ExpService::ExpService(Options options)
    : options_(Normalized(std::move(options))),
      owned_registry_(options_.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      registry_(options_.registry != nullptr ? options_.registry
                                             : owned_registry_.get()),
      core_(options_.engine_name, options_.engine_options,
            options_.engine_cache_capacity, options_.blind_seed, registry_),
      clock_(options_.clock != nullptr ? options_.clock : &steady_clock_),
      metrics_(*registry_),
      sched_(SchedulerConfig(options_, registry_)) {
  // The 3l+5-per-pair credit models the C-slow variant of the array
  // schedule; a backend without pairable streams (word-serial datapaths)
  // must not report fictitious dual-channel throughput.  That is
  // enforced per job — non-pairable jobs never enter the pairing
  // keyspace and RunGroup falls back to solo issue for bonded pairs —
  // rather than by disabling pairing service-wide, so jobs whose
  // ExpJobOptions override selects a pairable backend still co-schedule.
  cont_thread_ = std::thread([this] { ContinuationLoop(); });
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ExpService::~ExpService() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers are gone, so no callback can post further work after this
  // point: drain the continuation queue, then retire its thread.  Every
  // pending CRT recombination posted by a drained job still runs.
  {
    std::lock_guard<std::mutex> lk(cont_mu_);
    cont_stop_ = true;
  }
  cont_cv_.notify_all();
  cont_thread_.join();
}

std::uint64_t ExpService::NowTicks() const { return clock_->Now(); }

std::future<ExpService::Result> ExpService::EnqueueLocked(Job job) {
  std::future<Result> future = job.promise.get_future();
  job.id = next_id_++;
  EnqueueJob(std::move(job), NowTicks(), sched_, pending_, metrics_,
             options_.tracer);
  return future;
}

std::future<ExpService::Result> ExpService::Submit(BigUInt modulus,
                                                   BigUInt base,
                                                   BigUInt exponent,
                                                   Callback callback) {
  return Submit(std::move(modulus), std::move(base), std::move(exponent),
                JobOptions{}, std::move(callback));
}

std::future<ExpService::Result> ExpService::Submit(BigUInt modulus,
                                                   BigUInt base,
                                                   BigUInt exponent,
                                                   JobOptions job_options,
                                                   Callback callback) {
  Job job = core_.MakeJob(std::move(modulus), std::move(base),
                          std::move(exponent), std::move(job_options),
                          std::move(callback));
  std::future<Result> future;
  {
    std::lock_guard<std::mutex> lk(mu_);
    future = EnqueueLocked(std::move(job));
  }
  cv_.notify_one();
  return future;
}

std::pair<std::future<ExpService::Result>, std::future<ExpService::Result>>
ExpService::SubmitTogether(BigUInt modulus_a, BigUInt base_a,
                           BigUInt exponent_a, Callback callback_a,
                           BigUInt modulus_b, BigUInt base_b,
                           BigUInt exponent_b, Callback callback_b,
                           const JobOptions& options) {
  Job a = core_.MakeJob(std::move(modulus_a), std::move(base_a),
                        std::move(exponent_a), options, std::move(callback_a));
  Job b = core_.MakeJob(std::move(modulus_b), std::move(base_b),
                        std::move(exponent_b), options, std::move(callback_b));
  std::pair<std::future<Result>, std::future<Result>> futures;
  {
    std::lock_guard<std::mutex> lk(mu_);
    futures.first = EnqueueLocked(std::move(a));
    futures.second = EnqueueLocked(std::move(b));
  }
  cv_.notify_one();
  cv_.notify_one();
  return futures;
}

std::vector<std::future<ExpService::Result>> ExpService::SubmitBatch(
    const BigUInt& modulus, std::span<const BigUInt> bases,
    std::span<const BigUInt> exponents) {
  if (bases.size() != exponents.size()) {
    throw std::invalid_argument(
        "ExpService::SubmitBatch: bases/exponents size mismatch");
  }
  std::vector<Job> batch;
  batch.reserve(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    batch.push_back(core_.MakeJob(modulus, bases[i], exponents[i], {}, {}));
  }
  std::vector<std::future<Result>> futures;
  futures.reserve(batch.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (Job& job : batch) futures.push_back(EnqueueLocked(std::move(job)));
  }
  cv_.notify_all();
  return futures;
}

std::pair<std::future<ExpService::Result>, std::future<ExpService::Result>>
ExpService::SubmitPair(BigUInt modulus_a, BigUInt base_a, BigUInt exponent_a,
                       BigUInt modulus_b, BigUInt base_b, BigUInt exponent_b) {
  Job a = core_.MakeJob(std::move(modulus_a), std::move(base_a),
                        std::move(exponent_a), {}, {});
  Job b = core_.MakeJob(std::move(modulus_b), std::move(base_b),
                        std::move(exponent_b), {}, {});
  std::pair<std::future<Result>, std::future<Result>> futures;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (a.spec.modulus.BitLength() != b.spec.modulus.BitLength()) {
      // Unequal lengths cannot share an array; run them as plain jobs.
      futures.first = EnqueueLocked(std::move(a));
      futures.second = EnqueueLocked(std::move(b));
    } else {
      futures.first = a.promise.get_future();
      futures.second = b.promise.get_future();
      a.id = next_id_++;
      b.id = next_id_++;
      const std::uint64_t now = NowTicks();
      if (options_.tracer != nullptr && options_.tracer->enabled()) {
        options_.tracer->Instant("job.submit", a.id, 0, now,
                                 {{"job", a.id}, {"bonded", 1}});
        options_.tracer->Instant("job.submit", b.id, 0, now,
                                 {{"job", b.id}, {"bonded", 1}});
      }
      // The scheduler forms the bonded group at submit time: a worker can
      // never observe one half without the other.
      sched_.SubmitBonded(a.id, b.id, now);
      pending_.emplace(a.id, std::move(a));
      pending_.emplace(b.id, std::move(b));
      metrics_.submitted.Add(2);
    }
  }
  cv_.notify_all();
  return futures;
}

void ExpService::Post(std::function<void()> continuation) {
  {
    std::lock_guard<std::mutex> lk(cont_mu_);
    continuations_.push(std::move(continuation));
  }
  cont_cv_.notify_one();
}

void ExpService::Wait() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return DrainedLocked(); });
}

ExpService::Counters ExpService::Snapshot() const {
  return MakeCounters(metrics_, sched_, core_);
}

bool ExpService::AcquireIssues(std::size_t index,
                               std::unique_lock<std::mutex>& lk,
                               std::vector<StealScheduler::Issue>* issues) {
  for (;;) {
    // While draining, every held job's deadline is treated as expired so
    // nothing waits out a timeout the pool no longer needs.
    const std::uint64_t now =
        stop_ ? std::numeric_limits<std::uint64_t>::max() : NowTicks();
    sched_.AcquireBatch(index, now, issues);
    if (!issues->empty()) return true;
    if (stop_) return false;
    const auto deadline = sched_.NextHoldDeadline();
    if (!deadline.has_value()) {
      cv_.wait(lk);
    } else if (options_.clock != nullptr) {
      // An injected clock's ticks don't map onto wall time, so the timed
      // wait degrades to a poll (test-only configuration).
      cv_.wait_for(lk, std::chrono::microseconds(100));
    } else {
      cv_.wait_until(lk, std::chrono::steady_clock::time_point(
                             std::chrono::nanoseconds(*deadline)));
    }
  }
}

void ExpService::WorkerLoop(std::size_t index) {
  struct Unit {
    StealScheduler::Issue issue;
    std::vector<Job> jobs;
  };
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    std::vector<StealScheduler::Issue> issues;
    if (!AcquireIssues(index, lk, &issues)) return;
    std::vector<Unit> units;
    units.reserve(issues.size());
    for (const StealScheduler::Issue& issue : issues) {
      units.push_back(Unit{issue, ClaimJobs(pending_, issue)});
      in_flight_ += issue.count;
    }
    lk.unlock();

    for (Unit& unit : units) {
      // Fault-injection/observability hook (chaos harness): runs before
      // the deadline gate so a stalled worker realistically turns into
      // deadline misses downstream.  Exceptions are contained.
      if (options_.worker_observer) {
        try {
          options_.worker_observer(index);
        } catch (...) {
        }
      }
      std::vector<Job> expired = TakeExpired(unit.jobs, NowTicks());
      obs::Tracer* const tracer = options_.tracer;
      const bool tracing = tracer != nullptr && tracer->enabled();
      const std::uint64_t run_start = tracing ? NowTicks() : 0;
      ExecutionCore::Outcome outcome;
      if (!unit.jobs.empty()) outcome = RunJobs(core_, unit.jobs);
      if (tracing) {
        const std::uint64_t run_end = NowTicks();
        TraceRun(tracer, unit.jobs, outcome, unit.issue, index, run_start,
                 run_end);
        TraceCancelled(tracer, expired, index, run_end);
      }
      // Counters — and the scheduler's in-flight accounting, which gates
      // the hold-for-pairing heuristic — are published before the
      // promises resolve, so a caller observing a completed future
      // observes its issue already counted, and a caller submitting right
      // after .get() sees an idle pool.
      lk.lock();
      metrics_.CountGroup(outcome.paired, unit.jobs.size());
      metrics_.cancelled.Add(expired.size());
      sched_.OnGroupDone();
      lk.unlock();

      ResolveCancelled(expired);
      ResolveGroup(unit.jobs, outcome, unit.issue);
      // jobs_completed / in_flight_ retire only after the callbacks, so
      // Wait() returning guarantees every completion hook has run.
      lk.lock();
      metrics_.completed.Add(unit.jobs.size());
      in_flight_ -= unit.jobs.size() + expired.size();
      const bool drained = DrainedLocked();
      lk.unlock();
      if (drained) idle_cv_.notify_all();
    }
    lk.lock();
  }
}

void ExpService::ContinuationLoop() {
  std::unique_lock<std::mutex> lk(cont_mu_);
  for (;;) {
    cont_cv_.wait(lk,
                  [this] { return cont_stop_ || !continuations_.empty(); });
    if (continuations_.empty()) {
      if (cont_stop_) return;
      continue;
    }
    std::function<void()> continuation = std::move(continuations_.front());
    continuations_.pop();
    lk.unlock();
    try {
      continuation();
    } catch (...) {
      // Continuations are fire-and-forget; errors surface through the
      // promises they own, never by killing the drain thread.
    }
    lk.lock();
  }
}

// ---------------------------------------------------------------------------
// DeterministicExecutor
// ---------------------------------------------------------------------------

DeterministicExecutor::DeterministicExecutor(ExpService::Options options)
    : options_(Normalized(std::move(options))),
      owned_registry_(options_.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      registry_(options_.registry != nullptr ? options_.registry
                                             : owned_registry_.get()),
      core_(options_.engine_name, options_.engine_options,
            options_.engine_cache_capacity, options_.blind_seed, registry_),
      metrics_(*registry_),
      sched_(SchedulerConfig(options_, registry_)),
      worker_busy_(options_.workers, false) {}

void DeterministicExecutor::Schedule(std::uint64_t tick,
                                     std::function<void()> action) {
  Event event;
  event.tick = std::max(tick, now_);
  event.seq = next_seq_++;
  event.action = std::move(action);
  events_.push(std::move(event));
}

std::future<DeterministicExecutor::Result> DeterministicExecutor::SubmitAt(
    std::uint64_t tick, BigUInt modulus, BigUInt base, BigUInt exponent,
    ExpJobOptions job_options, Callback callback) {
  auto job = std::make_shared<Job>(core_.MakeJob(
      std::move(modulus), std::move(base), std::move(exponent),
      std::move(job_options), std::move(callback)));
  job->id = next_id_++;
  std::future<Result> future = job->promise.get_future();
  const std::uint64_t deadline = job->spec.options.deadline;
  const std::uint64_t id = job->id;
  Schedule(tick, [this, job] {
    EnqueueJob(std::move(*job), now_, sched_, pending_, metrics_,
               options_.tracer);
    TryDispatch();
  });
  if (deadline != 0) {
    // Exact-tick cancellation: the event fires at the deadline (never
    // before the submit event — same tick, later seq) and releases the
    // job if it is still queued or held for pairing.
    Schedule(std::max(tick, deadline), [this, id] { CancelIfQueued(id); });
  }
  return future;
}

void DeterministicExecutor::CancelIfQueued(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;  // already claimed by a worker
  if (!sched_.Cancel(id)) return;
  std::vector<Job> cancelled;
  cancelled.push_back(std::move(it->second));
  pending_.erase(it);
  FinishCancelled(cancelled);
}

void DeterministicExecutor::FinishCancelled(std::vector<Job>& jobs) {
  metrics_.cancelled.Add(jobs.size());
  TraceCancelled(options_.tracer, jobs, 0, now_);
  for (const Job& job : jobs) {
    JobRecord record;
    record.id = job.id;
    record.submit_tick = job.submit_tick;
    record.start_tick = now_;
    record.finish_tick = now_;
    record.cancelled = true;
    records_.push_back(record);
  }
  ResolveCancelled(jobs);
}

void DeterministicExecutor::PostAt(std::uint64_t tick,
                                   std::function<void()> continuation) {
  Schedule(tick, [continuation = std::move(continuation)] {
    try {
      continuation();
    } catch (...) {
    }
  });
}

void DeterministicExecutor::ScheduleHoldWake() {
  bool any_idle = false;
  for (const bool busy : worker_busy_) any_idle = any_idle || !busy;
  if (!any_idle) return;
  const auto deadline = sched_.NextHoldDeadline();
  if (!deadline.has_value()) return;
  const std::uint64_t tick = std::max(*deadline, now_);
  if (hold_wake_scheduled_ && hold_wake_tick_ <= tick) return;
  hold_wake_scheduled_ = true;
  hold_wake_tick_ = tick;
  Schedule(tick, [this] {
    hold_wake_scheduled_ = false;
    TryDispatch();
  });
}

void DeterministicExecutor::TryDispatch() {
  struct Unit {
    StealScheduler::Issue issue;
    std::vector<Job> jobs;
    ExecutionCore::Outcome outcome;
    std::uint64_t start = 0;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t w = 0; w < worker_busy_.size(); ++w) {
      if (worker_busy_[w]) continue;
      std::vector<StealScheduler::Issue> issues;
      sched_.AcquireBatch(w, now_, &issues);
      if (issues.empty()) continue;
      progress = true;
      worker_busy_[w] = true;
      std::uint64_t start = now_;
      for (const StealScheduler::Issue& issue : issues) {
        auto unit = std::make_shared<Unit>();
        unit->issue = issue;
        unit->jobs = ClaimJobs(pending_, issue);
        // A job claimed at the very tick its deadline fires — before the
        // cancellation event ran — is still cancelled, never dispatched.
        std::vector<Job> expired = TakeExpired(unit->jobs, now_);
        FinishCancelled(expired);
        if (unit->jobs.empty()) {
          // The whole group expired: retire it without occupying the
          // worker's virtual array for any ticks.
          sched_.OnGroupDone();
          continue;
        }
        // The values are computed eagerly (they are time-independent);
        // only the *completion* is timestamped, at the group's modelled
        // array occupancy past its start tick.
        unit->outcome = RunJobs(core_, unit->jobs);
        std::uint64_t duration = 0;
        if (unit->outcome.error == nullptr) {
          if (unit->outcome.paired) {
            duration = unit->outcome.results[0].stats.engine_cycles;
          } else {
            for (const ExpResult& result : unit->outcome.results) {
              duration += result.stats.engine_cycles;
            }
          }
        }
        unit->start = start;
        const std::uint64_t finish = start + duration;
        Schedule(finish, [this, unit, w] {
          metrics_.CountGroup(unit->outcome.paired, unit->jobs.size());
          metrics_.completed.Add(unit->jobs.size());
          sched_.OnGroupDone();
          TraceRun(options_.tracer, unit->jobs, unit->outcome, unit->issue, w,
                   unit->start, now_);
          for (const Job& job : unit->jobs) {
            JobRecord record;
            record.id = job.id;
            record.submit_tick = job.submit_tick;
            record.start_tick = unit->start;
            record.finish_tick = now_;
            record.worker = w;
            record.paired = unit->outcome.paired;
            record.stolen = unit->issue.stolen;
            record.unpaired_by_timeout = unit->issue.unpaired_by_timeout;
            record.bonded = unit->issue.bonded;
            records_.push_back(record);
          }
          ResolveGroup(unit->jobs, unit->outcome, unit->issue);
        });
        start = finish;
      }
      Schedule(start, [this, w] {
        worker_busy_[w] = false;
        TryDispatch();
      });
    }
  }
  ScheduleHoldWake();
}

void DeterministicExecutor::RunUntilIdle() {
  if (running_) return;  // re-entrant call from a callback: outer loop runs
  running_ = true;
  while (!events_.empty()) {
    Event event = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = event.tick;
    event.action();
  }
  running_ = false;
}

ExpService::Counters DeterministicExecutor::Snapshot() const {
  return MakeCounters(metrics_, sched_, core_);
}

}  // namespace mont::core
