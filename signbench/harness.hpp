// harness.hpp — shared types of the signing benchmark harness.
//
// The harness drives the repository's public entry points only:
// server::SigningService through the full wire codec, core::ExpService,
// and (for the outside-in layer timings) the engine, PKCS#1, CRT, wire and
// admission calls.  Every input arrives from run.py or is derived from the
// workload seed; the program under test never chooses its own inputs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bignum/biguint.hpp"
#include "core/exp_service.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace signbench {

using mont::bignum::BigUInt;
using mont::crypto::RsaKeyPair;

/// Same time base as the service clock and the tracer (steady ns).
inline std::uint64_t NowNs() { return mont::obs::Tracer::NowTicks(); }

/// Linearly interpolated quantile, q in [0, 1]; NaN for an empty input.
double Quantile(std::vector<double> values, double q);

/// Keys and moduli generated by run.py from the workload seed.
struct Inputs {
  std::vector<RsaKeyPair> rsa512;  ///< sign-saturate tenants, one key each
  RsaKeyPair rsa1024;              ///< the sign-serial key
  std::vector<BigUInt> moduli64;   ///< exp-microjobs moduli
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// A closed loop runs `warmup_s`, then counts what completes in the next
/// `measure_s`, then stops issuing and drains.
struct Window {
  double warmup_s = 0;
  double measure_s = 0;
};

/// Throughput as the upper quartile over roughly one-second slices of a
/// window.  Each slice runs from the first completion after one mark to the
/// first after the next and is timed exactly, so a rate is not rounded to
/// whole completions.  On a shared host, interference only ever removes
/// throughput, and it comes in bursts of seconds, so the faster slices
/// track the program's own speed and a burst moves only the slower ones.
/// Constant memory: one entry per slice.
class RateMeter {
 public:
  RateMeter(std::uint64_t from_ns, std::uint64_t to_ns)
      : next_mark_(from_ns), to_(to_ns) {}
  /// `now`: a completion time (non-decreasing); `done`: completions so far.
  void Record(std::uint64_t now, std::uint64_t done);
  /// Upper-quartile slice rate in 1/s; NaN before two slice marks.
  double Rate() const;

 private:
  static constexpr std::uint64_t kSliceNs = 1'000'000'000;
  std::uint64_t next_mark_;
  std::uint64_t to_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> marks_;  // (ns, done)
};

/// Switches a tracer on and off in alternate one-second phases of a window
/// (on first) and compares the completion rates of the two, so the
/// tracing overhead is measured against the same run and slow host drift
/// cancels.  Spans are recorded only in the on phases.
class TracingAlternator {
 public:
  /// A null `tracer` makes every call a no-op.
  TracingAlternator(mont::obs::Tracer* tracer, std::uint64_t from_ns,
                    std::uint64_t to_ns);
  /// `now`: a completion time (non-decreasing); `done`: completions so far.
  void Record(std::uint64_t now, std::uint64_t done);
  /// 1 - (rate with tracing on) / (rate with it off); NaN before a
  /// phase of each kind has ended.
  double OverheadFrac() const;

 private:
  static constexpr std::uint64_t kPhaseNs = 1'000'000'000;
  mont::obs::Tracer* tracer_;
  std::uint64_t from_, to_;
  bool started_ = false, finished_ = false, on_ = true;
  std::uint64_t phase_start_ns_ = 0, phase_start_done_ = 0;
  std::uint64_t ns_[2] = {0, 0}, done_[2] = {0, 0};  // [off, on]
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< operations that completed in the window
  std::uint64_t failed = 0;     ///< of those: refused, failed or wrong
  /// Wrong signatures or job results anywhere in the run (warm-up and
  /// drain included).  Any is a correctness failure.
  std::uint64_t wrong = 0;
  double ops_per_s = 0;
  std::vector<double> latency_ms;  ///< ops completed OK in the window
  /// engine.cycles over every completed operation of the run.
  double kcycles_per_op = 0;
  /// From the TracingAlternator; traced runs only.
  double tracing_overhead_frac = 0;
  /// Broken registry invariants or released bad signatures.
  std::vector<std::string> violations;
  mont::obs::MetricsSnapshot snapshot;  ///< registry after the drain
  /// Lines for run.py's independent check of sampled outputs.
  std::vector<std::string> samples;
};

// --- workloads.cpp --------------------------------------------------------

struct SignConfig {
  std::vector<const RsaKeyPair*> keys;  ///< one tenant per key
  std::size_t depth = 1;                ///< requests outstanding
  /// Pause between a response and the slot's next request.  A pause longer
  /// than the guest's idle poll lets the workers fall fully asleep, so each
  /// request meets an idle service the way an isolated request does.
  double think_s = 0;
};

/// Closed loop of PKCS#1 v1.5 signing requests from one generator thread,
/// every request and response through encode → frame → FrameReader →
/// decode.  Every released signature is verified after the loop.  With a
/// `tracer` (created disabled), tracing alternates through the window.
RunResult RunSigning(const SignConfig& config, std::uint64_t seed,
                     Window window, mont::obs::Tracer* tracer);
/// Median time to construct the signing service from a ready keystore.
double MedianSetupSigning(const SignConfig& config, int reps);

/// Microjob inputs, generated (and their BigUInt::ModExp answers
/// computed) before any timer starts.
struct JobPool {
  std::vector<BigUInt> modulus, base, exponent, expected;
};
JobPool MakeJobPool(const std::vector<BigUInt>& moduli, std::uint64_t seed,
                    std::size_t size);
/// Closed loop of small ExpService jobs on the word-mont engine; a
/// `tracer` alternates as in RunSigning.
RunResult RunMicrojobs(const JobPool& pool, std::size_t depth, Window window,
                       mont::obs::Tracer* tracer);
double MedianSetupMicrojobs(int reps);

// --- layers.cpp -----------------------------------------------------------

/// Per-request stage split of a traced signing run, as medians in ms.
struct SigningStages {
  std::size_t requests = 0;  ///< complete single-attempt requests seen
  double e2e = 0, ingress = 0, queue = 0, run = 0, join = 0,
         continuation = 0, recombine = 0, respond = 0, egress = 0;
  double all_runs = 0;  ///< median over every job.run span
  double UnexplainedFrac() const;
};
SigningStages ComputeSigningStages(
    const std::vector<mont::obs::TraceEvent>& events);

/// job.submit → job.run and job.run medians (ms) of a traced job run.
struct JobStages {
  std::size_t jobs = 0;
  double queue = 0, run = 0;
};
JobStages ComputeJobStages(const std::vector<mont::obs::TraceEvent>& events);

/// Scheduler and engine-cache shares from a drained run's registry.
void AddSchedulerShares(const mont::obs::MetricsSnapshot& snapshot,
                        MetricList* out);

/// Outside-in timings of the public calls of each layer.  `sign_key` sets
/// the PKCS#1/CRT/wire operand sizes.  A modelled cycle count other than
/// 3l+4 is recorded in `violations`.
void AddLayerTimings(const Inputs& inputs, const RsaKeyPair& sign_key,
                     MetricList* out, std::vector<std::string>* violations);

// --- shared plumbing ------------------------------------------------------

/// Completion queue from service threads to the generator thread.
template <class T>
class Inbox {
 public:
  void Push(T item) {
    // Notify under the lock: the generator may destroy the inbox as soon
    // as it has taken the last item.
    std::lock_guard<std::mutex> lk(mu_);
    items_.push_back(std::move(item));
    cv_.notify_one();
  }
  /// Blocks until at least one item is queued, then takes them all.
  void PopAll(std::vector<T>* out) {
    out->clear();
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return !items_.empty(); });
    out->swap(items_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<T> items_;
};

}  // namespace signbench
