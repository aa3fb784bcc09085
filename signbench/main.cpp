// signbench — one run of one workload of the signing benchmark.
//
//   signbench --workload NAME --seed N --seconds S --trace 0|1
//             --inputs FILE [--samples FILE]
//
// Workloads (all closed loops from one generator thread):
//   sign-saturate  4 tenants x one RSA-512 key, 8 requests outstanding
//   sign-serial    one RSA-1024 key, 1 request outstanding, 2 ms pause
//                  between a response and the next request
//   exp-microjobs  ExpService on word-mont, 4 64-bit moduli, exponents of
//                  at most 8 bits, 32 jobs outstanding
//
// --trace 0 measures the end-to-end metrics untraced.  --trace 1 runs the
// workload with an obs::Tracer switched on and off in alternate seconds,
// and reports the per-layer metrics: the stage split read back from the
// tracer, the tracing overhead (on seconds against off seconds), the
// registry shares, and outside-in timings of each layer's public calls.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}.  Exit status 1 means a wrong signature, a wrong job result or
// a broken conservation law; 2 means the run could not be made.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace signbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string inputs;
  std::string samples;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--inputs") {
      args.inputs = value;
    } else if (flag == "--samples") {
      args.samples = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.seconds <= 0 || args.inputs.empty()) {
    throw std::invalid_argument("need --workload, --seconds and --inputs");
  }
  return args;
}

/// Lines "rsa512 n e d p q", "rsa1024 n e d p q", "mod64 m" (hex).
Inputs ReadInputs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Inputs inputs;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "rsa512" || kind == "rsa1024") {
      std::string n, e, d, p, q;
      fields >> n >> e >> d >> p >> q;
      RsaKeyPair key{BigUInt::FromHex(n), BigUInt::FromHex(e),
                     BigUInt::FromHex(d), BigUInt::FromHex(p),
                     BigUInt::FromHex(q)};
      if (kind == "rsa512") {
        inputs.rsa512.push_back(std::move(key));
      } else {
        inputs.rsa1024 = std::move(key);
      }
    } else if (kind == "mod64") {
      std::string m;
      fields >> m;
      inputs.moduli64.push_back(BigUInt::FromHex(m));
    }
  }
  if (inputs.rsa512.size() != 4 || inputs.rsa1024.n.IsZero() ||
      inputs.moduli64.size() != 4) {
    throw std::runtime_error("incomplete inputs in " + path);
  }
  return inputs;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Set-up is timed after the run, while the vCPUs are still awake: timed
/// first, thread start-up on cold vCPUs swung 30% between runs.
constexpr int kSetupReps = 101;
/// Idle vCPUs run slowly for their first second of load on a shared host.
constexpr double kWarmupS = 1.0;
/// Lets the workers fall asleep between serial requests (see SignConfig).
constexpr double kSerialThinkS = 0.002;
constexpr std::size_t kMicrojobDepth = 32;
constexpr std::size_t kMicrojobPool = 4096;

/// Accumulates one run's outcome across its phases.
struct Report {
  MetricList metrics;
  std::vector<std::string> violations;
  std::vector<std::string> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Absorb(const RunResult& run) {
    attempted += run.attempted;
    failed += run.failed;
    if (run.wrong != 0) {
      violations.push_back(std::to_string(run.wrong) +
                           " wrong signatures or job results");
    }
    violations.insert(violations.end(), run.violations.begin(),
                      run.violations.end());
    if (samples.empty()) samples = run.samples;
  }
  void Add(const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  /// The end-to-end metrics every workload reports.
  void AddEndToEnd(const RunResult& run, double setup_s) {
    Add("ops_per_s", run.ops_per_s, "1/s");
    Add("p50_ms", Quantile(run.latency_ms, 0.5), "ms");
    Add("p90_ms", Quantile(run.latency_ms, 0.9), "ms");
    Add("model_kcycles_per_op", run.kcycles_per_op, "kcycles");
    Add("ok_frac",
        run.attempted == 0 ? 0.0
                           : static_cast<double>(run.attempted - run.failed) /
                                 static_cast<double>(run.attempted),
        "frac");
    Add("setup_s", setup_s, "s");
    Add("rss_peak_mb", PeakRssMb(), "MB");
  }
};

void AddSigningStageMetrics(const SigningStages& s, Report* report) {
  if (s.requests == 0) {
    report->violations.push_back("traced run left no complete request");
  }
  report->Add("exp.join_wait_ms", s.join, "ms");
  report->Add("crypto.recombine_ms", s.recombine, "ms");
  report->Add("crypto.continuation_wait_ms", s.continuation, "ms");
  report->Add("server.respond_ms", s.respond, "ms");
  report->Add("ledger.unexplained_frac", s.UnexplainedFrac(), "frac");
}

/// A traced run: one window with tracing switched on and off in alternate
/// seconds (TracingAlternator), so its overhead is measured in the same run.
mont::obs::Tracer::Options TraceOptions() {
  return mont::obs::Tracer::Options{std::size_t{1} << 16, false};
}

void RunSignWorkload(const Args& args, const SignConfig& config,
                     const RsaKeyPair& sign_key, const Inputs& inputs,
                     Report* report) {
  const Window window{kWarmupS, args.seconds};
  if (!args.trace) {
    const RunResult run = RunSigning(config, args.seed, window, nullptr);
    const double setup_s = MedianSetupSigning(config, kSetupReps);
    report->Absorb(run);
    report->AddEndToEnd(run, setup_s);
    return;
  }
  mont::obs::Tracer tracer(TraceOptions());
  const RunResult traced = RunSigning(config, args.seed, window, &tracer);
  report->Absorb(traced);
  const SigningStages stages = ComputeSigningStages(tracer.SortedEvents());
  report->Add("exp.run_ms", stages.all_runs, "ms");
  report->Add("exp.queue_wait_ms", stages.queue, "ms");
  AddSigningStageMetrics(stages, report);
  AddSchedulerShares(traced.snapshot, &report->metrics);
  report->Add("obs.tracing_overhead_frac", traced.tracing_overhead_frac,
              "frac");
  AddLayerTimings(inputs, sign_key, &report->metrics, &report->violations);
}

void RunMicrojobWorkload(const Args& args, const Inputs& inputs,
                         Report* report) {
  const JobPool pool = MakeJobPool(inputs.moduli64, args.seed, kMicrojobPool);
  const Window window{kWarmupS, args.seconds};
  if (!args.trace) {
    const RunResult run = RunMicrojobs(pool, kMicrojobDepth, window, nullptr);
    const double setup_s = MedianSetupMicrojobs(kSetupReps);
    report->Absorb(run);
    report->AddEndToEnd(run, setup_s);
    return;
  }
  mont::obs::Tracer tracer(TraceOptions());
  const RunResult traced = RunMicrojobs(pool, kMicrojobDepth, window, &tracer);
  report->Absorb(traced);
  const JobStages jobs = ComputeJobStages(tracer.SortedEvents());
  if (jobs.jobs == 0) report->violations.push_back("no traced job");
  report->Add("exp.run_ms", jobs.run, "ms");
  report->Add("exp.queue_wait_ms", jobs.queue, "ms");

  // This workload signs nothing; the signing stages come from a short
  // traced serial probe on one RSA-512 key, so every layer is reported.
  // Its first second is traced, its second is not.
  mont::obs::Tracer probe_tracer(TraceOptions());
  const SignConfig probe{{&inputs.rsa512[0]}, 1, kSerialThinkS};
  report->Absorb(RunSigning(probe, args.seed, {0.2, 2.0}, &probe_tracer));
  AddSigningStageMetrics(ComputeSigningStages(probe_tracer.SortedEvents()),
                         report);
  AddSchedulerShares(traced.snapshot, &report->metrics);
  report->Add("obs.tracing_overhead_frac", traced.tracing_overhead_frac,
              "frac");
  AddLayerTimings(inputs, inputs.rsa512[0], &report->metrics,
                  &report->violations);
}

void PrintJson(const Report& report, bool correct) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    json += (i == 0 ? "" : ", ") + std::string("\"") + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    const Inputs inputs = ReadInputs(args.inputs);
    Report report;
    if (args.workload == "sign-saturate") {
      SignConfig config;
      for (const RsaKeyPair& key : inputs.rsa512) config.keys.push_back(&key);
      config.depth = 8;
      RunSignWorkload(args, config, inputs.rsa512[0], inputs, &report);
    } else if (args.workload == "sign-serial") {
      const SignConfig config{{&inputs.rsa1024}, 1, kSerialThinkS};
      RunSignWorkload(args, config, inputs.rsa1024, inputs, &report);
    } else if (args.workload == "exp-microjobs") {
      RunMicrojobWorkload(args, inputs, &report);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    for (const Metric& m : report.metrics) {
      if (!std::isfinite(m.value)) {
        report.violations.push_back("metric " + m.name + " has no value");
      }
    }
    if (!args.samples.empty()) {
      std::ofstream out(args.samples);
      for (const std::string& line : report.samples) out << line << '\n';
    }
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "signbench: VIOLATION %s\n", v.c_str());
    }
    const bool correct = report.violations.empty() && report.attempted > 0;
    PrintJson(report, correct);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "signbench: %s\n", e.what());
    return 2;
  }
}
