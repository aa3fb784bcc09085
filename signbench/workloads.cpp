// workloads.cpp — the closed loops: signing through the wire codec, and
// microjobs straight into ExpService.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "crypto/pkcs1.hpp"
#include "harness.hpp"
#include "server/keystore.hpp"
#include "server/signing_service.hpp"
#include "server/wire.hpp"

namespace signbench {

namespace server = mont::server;
namespace core = mont::core;

namespace {

constexpr std::size_t kMessageBytes = 64;
/// Track of the benchmark's own outer spans in a trace.
constexpr std::uint64_t kBenchTrack = 1000;
/// Outputs handed to run.py for an independent check.
constexpr std::size_t kSampleCount = 4;
/// Latencies kept per run, in storage reserved up front, so the harness's
/// own memory does not grow with throughput and show in rss_peak_mb.
/// Microjobs complete ~10^5 times a second, so only every 128th is kept.
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 17;
constexpr std::uint64_t kLatencySampleEvery = 128;

std::uint64_t Ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

server::Keystore MakeKeystore(const SignConfig& config) {
  server::Keystore keystore;
  for (std::size_t i = 0; i < config.keys.size(); ++i) {
    server::TenantConfig tenant;  // defaults: unlimited rate, 32 in flight
    tenant.name = "tenant" + std::to_string(i + 1);
    const auto tenant_id = static_cast<std::uint32_t>(i + 1);
    keystore.AddTenant(tenant_id, tenant);
    keystore.AddKey(tenant_id, 1, *config.keys[i]);
  }
  return keystore;
}

server::SigningService::Options SigningOptions(mont::obs::Tracer* tracer) {
  server::SigningService::Options options;  // 2 workers, bit-serial
  options.service.tracer = tracer;
  return options;
}

core::ExpService::Options MicrojobOptions(mont::obs::Tracer* tracer) {
  core::ExpService::Options options;  // 2 workers
  options.engine_name = "word-mont";
  options.tracer = tracer;
  return options;
}

/// Conservation laws and the zero-bad-signature law on a drained run.
void CheckRegistry(const mont::obs::Registry& registry, RunResult* result) {
  const mont::obs::MetricsSnapshot& s = result->snapshot;
  for (std::string& line : registry.CheckInvariants(s)) {
    result->violations.push_back(std::move(line));
  }
  const std::uint64_t submitted = s.CounterValue("jobs.submitted");
  const std::uint64_t retired =
      s.CounterValue("jobs.completed") + s.CounterValue("jobs.cancelled");
  if (submitted != retired) {
    result->violations.push_back(
        "jobs.submitted " + std::to_string(submitted) +
        " != jobs.completed + jobs.cancelled " + std::to_string(retired));
  }
  const std::uint64_t bad = s.CounterValue("server.bad_signatures_released");
  if (bad != 0) {
    result->violations.push_back("server.bad_signatures_released = " +
                                 std::to_string(bad));
  }
}

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const std::uint8_t byte : bytes) {
    out.push_back(digits[byte >> 4]);
    out.push_back(digits[byte & 15]);
  }
  return out;
}

template <class Fn>
double MedianSeconds(int reps, Fn&& construct_and_time) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) seconds.push_back(construct_and_time());
  return Quantile(std::move(seconds), 0.5);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void RateMeter::Record(std::uint64_t now, std::uint64_t done) {
  if (now < next_mark_ || now >= to_) return;
  marks_.emplace_back(now, done);
  next_mark_ = now + kSliceNs;
}

double RateMeter::Rate() const {
  std::vector<double> rates;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    rates.push_back(static_cast<double>(marks_[i].second - marks_[i - 1].second) *
                    1e9 /
                    static_cast<double>(marks_[i].first - marks_[i - 1].first));
  }
  return Quantile(std::move(rates), 0.75);
}

TracingAlternator::TracingAlternator(mont::obs::Tracer* tracer,
                                     std::uint64_t from_ns,
                                     std::uint64_t to_ns)
    : tracer_(tracer), from_(from_ns), to_(to_ns) {
  if (tracer_ != nullptr) tracer_->set_enabled(false);  // off in warm-up
}

void TracingAlternator::Record(std::uint64_t now, std::uint64_t done) {
  if (tracer_ == nullptr || finished_ || now < from_) return;
  if (!started_) {
    started_ = true;
    tracer_->set_enabled(on_);
  } else if (now >= phase_start_ns_ + kPhaseNs || now >= to_) {
    ns_[on_] += now - phase_start_ns_;
    done_[on_] += done - phase_start_done_;
    finished_ = now >= to_;
    on_ = !on_ && !finished_;
    tracer_->set_enabled(on_);
  } else {
    return;
  }
  phase_start_ns_ = now;
  phase_start_done_ = done;
}

double TracingAlternator::OverheadFrac() const {
  if (ns_[0] == 0 || ns_[1] == 0 || done_[0] == 0) return std::nan("");
  const double off_rate =
      static_cast<double>(done_[0]) / static_cast<double>(ns_[0]);
  const double on_rate =
      static_cast<double>(done_[1]) / static_cast<double>(ns_[1]);
  return 1.0 - on_rate / off_rate;
}

// --- signing --------------------------------------------------------------

RunResult RunSigning(const SignConfig& config, std::uint64_t seed,
                     Window window, mont::obs::Tracer* tracer) {
  // One request in flight per slot.  A slot keeps only what its response
  // is checked against, so memory does not grow with the request count.
  struct Slot {
    std::uint64_t id = 0;
    std::size_t key = 0;
    std::vector<std::uint8_t> message;
    std::uint64_t sent = 0;
  };
  using Delivery = std::pair<std::size_t, std::vector<std::uint8_t>>;

  Inbox<Delivery> inbox;
  server::SigningService service(MakeKeystore(config), SigningOptions(tracer));
  std::mt19937_64 rng(seed);
  std::vector<Slot> slots(config.depth);
  std::uint64_t next_id = 1;
  // One reader per direction, as on one client connection.
  server::FrameReader server_reader(service.MaxFrameBytes());
  server::FrameReader client_reader;

  auto send = [&](std::size_t index) {
    Slot& slot = slots[index];
    slot.id = next_id++;
    slot.key = index % config.keys.size();
    slot.message.resize(kMessageBytes);
    for (std::uint8_t& byte : slot.message) {
      byte = static_cast<std::uint8_t>(rng());
    }
    server::SignRequest wire;
    wire.request_id = slot.id;
    wire.tenant_id = static_cast<std::uint32_t>(slot.key + 1);
    wire.key_id = 1;
    wire.message = slot.message;
    slot.sent = NowNs();
    server_reader.Feed(server::Frame(server::EncodeSignRequest(wire)));
    std::optional<std::vector<std::uint8_t>> payload = server_reader.Next();
    if (!payload) throw std::runtime_error("request frame did not split");
    service.HandleRequest(
        std::move(*payload),
        [&inbox, index, id = slot.id, tracer](server::SignResponse r) {
          if (tracer != nullptr) {
            tracer->Instant("bench.respond", id, kBenchTrack, NowNs());
          }
          inbox.Push({index, server::Frame(server::EncodeSignResponse(r))});
        });
  };

  RunResult result;
  result.latency_ms.reserve(kLatencyCapacity);
  std::uint64_t received = 0;
  std::uint64_t ok_total = 0;
  std::uint64_t ok_in_window = 0;
  const std::uint64_t begin = NowNs();
  const std::uint64_t measure_from = begin + Ns(window.warmup_s);
  const std::uint64_t measure_to = measure_from + Ns(window.measure_s);
  RateMeter meter(measure_from, measure_to);
  TracingAlternator alternator(tracer, measure_from, measure_to);
  for (std::size_t index = 0; index < config.depth; ++index) send(index);
  std::size_t outstanding = config.depth;
  std::vector<Delivery> batch;
  while (outstanding > 0) {
    inbox.PopAll(&batch);
    for (Delivery& delivery : batch) {
      client_reader.Feed(delivery.second);
      const std::optional<std::vector<std::uint8_t>> payload =
          client_reader.Next();
      const std::optional<server::SignResponse> response =
          payload ? server::DecodeSignResponse(*payload) : std::nullopt;
      const std::uint64_t now = NowNs();
      Slot& slot = slots[delivery.first];
      if (tracer != nullptr) {
        tracer->Complete("bench.request", slot.id, kBenchTrack, slot.sent, now);
      }
      --outstanding;
      alternator.Record(now, ++received);
      const std::uint64_t latency_ns = now - slot.sent;
      const RsaKeyPair& key = *config.keys[slot.key];
      const std::vector<std::uint8_t> message = std::move(slot.message);
      if (now < measure_to) {
        if (config.think_s > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(config.think_s));
        }
        send(delivery.first);  // reuses `slot`
        ++outstanding;
      }

      // Checked once the slot's next request is on its way, so the check
      // sits inside no request's timed interval.
      const bool released =
          response.has_value() && response->status == server::StatusCode::kOk;
      const bool verified =
          released &&
          response->payload.size() == (key.n.BitLength() + 7) / 8 &&
          mont::crypto::RsaVerifyPkcs1V15(
              key, message, BigUInt::FromBytesBE(response->payload));
      if (released && !verified) ++result.wrong;
      if (verified && ++ok_total <= kSampleCount) {
        result.samples.push_back("sig " + key.n.ToHex() + " " +
                                 key.e.ToHex() + " " + Hex(message) + " " +
                                 Hex(response->payload));
      }
      if (now < measure_from || now >= measure_to) continue;
      ++result.attempted;
      if (!verified) {
        ++result.failed;
        continue;
      }
      meter.Record(now, ++ok_in_window);
      if (result.latency_ms.size() < result.latency_ms.capacity()) {
        result.latency_ms.push_back(static_cast<double>(latency_ns) / 1e6);
      }
    }
  }
  service.Wait();

  result.snapshot = service.registry().Snapshot();
  CheckRegistry(service.registry(), &result);
  result.ops_per_s = meter.Rate();
  result.tracing_overhead_frac = alternator.OverheadFrac();
  if (ok_total > 0) {
    result.kcycles_per_op =
        static_cast<double>(result.snapshot.CounterValue("engine.cycles")) /
        static_cast<double>(ok_total) / 1e3;
  }
  return result;
}

double MedianSetupSigning(const SignConfig& config, int reps) {
  const server::Keystore keystore = MakeKeystore(config);
  return MedianSeconds(reps, [&] {
    server::Keystore copy = keystore;
    const auto start = std::chrono::steady_clock::now();
    auto service = std::make_unique<server::SigningService>(
        std::move(copy), SigningOptions(nullptr));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    service.reset();
    return elapsed.count();
  });
}

// --- microjobs ------------------------------------------------------------

JobPool MakeJobPool(const std::vector<BigUInt>& moduli, std::uint64_t seed,
                    std::size_t size) {
  std::mt19937_64 rng(seed);
  JobPool pool;
  for (std::size_t i = 0; i < size; ++i) {
    const BigUInt& modulus = moduli[rng() % moduli.size()];
    BigUInt base = BigUInt(rng()) % modulus;
    BigUInt exponent(rng() & 0xff);  // at most 8 bits
    pool.expected.push_back(BigUInt::ModExp(base, exponent, modulus));
    pool.modulus.push_back(modulus);
    pool.base.push_back(std::move(base));
    pool.exponent.push_back(std::move(exponent));
  }
  return pool;
}

RunResult RunMicrojobs(const JobPool& pool, std::size_t depth, Window window,
                       mont::obs::Tracer* tracer) {
  struct Done {
    std::size_t slot = 0;
    std::size_t job = 0;
    bool ok = false;
    BigUInt value;  ///< kept for the first kSampleCount pool entries only
  };

  Inbox<Done> inbox;
  core::ExpService service(MicrojobOptions(tracer));
  std::size_t cursor = 0;
  std::vector<std::uint64_t> sent(depth);
  auto submit = [&](std::size_t slot) {
    const std::size_t j = cursor++ % pool.modulus.size();
    sent[slot] = NowNs();
    service.Submit(pool.modulus[j], pool.base[j], pool.exponent[j],
                   [&inbox, &pool, slot, j](const core::ExpResult& r) {
                     Done done;
                     done.slot = slot;
                     done.job = j;
                     done.ok = !r.cancelled && r.value == pool.expected[j];
                     if (j < kSampleCount) done.value = r.value;
                     inbox.Push(std::move(done));
                   });
  };

  RunResult result;
  result.latency_ms.reserve(kLatencyCapacity);
  std::vector<BigUInt> sampled(kSampleCount);
  std::uint64_t completed = 0;
  std::uint64_t ok_in_window = 0;
  const std::uint64_t begin = NowNs();
  const std::uint64_t measure_from = begin + Ns(window.warmup_s);
  const std::uint64_t measure_to = measure_from + Ns(window.measure_s);
  RateMeter meter(measure_from, measure_to);
  TracingAlternator alternator(tracer, measure_from, measure_to);
  for (std::size_t slot = 0; slot < depth; ++slot) submit(slot);
  std::size_t outstanding = depth;
  std::vector<Done> batch;
  while (outstanding > 0) {
    inbox.PopAll(&batch);
    const std::uint64_t now = NowNs();
    const bool in_window = now >= measure_from && now < measure_to;
    for (Done& done : batch) {
      --outstanding;
      ++completed;
      if (!done.ok) ++result.wrong;
      if (done.job < kSampleCount) sampled[done.job] = std::move(done.value);
      if (in_window) {
        ++result.attempted;
        if (!done.ok) {
          ++result.failed;
        } else if (++ok_in_window % kLatencySampleEvery == 0 &&
                   result.latency_ms.size() < result.latency_ms.capacity()) {
          result.latency_ms.push_back(
              static_cast<double>(now - sent[done.slot]) / 1e6);
        }
      }
      if (now < measure_to) {
        submit(done.slot);
        ++outstanding;
      }
    }
    meter.Record(now, ok_in_window);
    alternator.Record(now, completed);
  }
  service.Wait();

  result.snapshot = service.registry().Snapshot();
  CheckRegistry(service.registry(), &result);
  result.ops_per_s = meter.Rate();
  result.tracing_overhead_frac = alternator.OverheadFrac();
  if (completed > 0) {
    result.kcycles_per_op =
        static_cast<double>(result.snapshot.CounterValue("engine.cycles")) /
        static_cast<double>(completed) / 1e3;
  }
  for (std::size_t j = 0; j < kSampleCount && j < completed; ++j) {
    result.samples.push_back("job " + pool.modulus[j].ToHex() + " " +
                             pool.base[j].ToHex() + " " +
                             pool.exponent[j].ToHex() + " " +
                             sampled[j].ToHex());
  }
  return result;
}

double MedianSetupMicrojobs(int reps) {
  return MedianSeconds(reps, [] {
    const auto start = std::chrono::steady_clock::now();
    auto service = std::make_unique<core::ExpService>(MicrojobOptions(nullptr));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    service.reset();
    return elapsed.count();
  });
}

}  // namespace signbench
