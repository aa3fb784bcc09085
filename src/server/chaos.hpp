// chaos.hpp — seeded, deterministic fault injection for the signing
// service.  Every knob defaults off; the chaos test suite turns them on
// one at a time and asserts the service's invariants hold:
//
//   knob                  | injected fault            | must hold
//   ----------------------+---------------------------+--------------------
//   stall_worker/_dur     | one ExpService worker     | healthy tenants are
//                         | sleeps before each group  | still served (work
//                         |                           | stealing routes
//                         |                           | around the stall)
//   corrupt_crt_rate      | one CRT half flips a bit  | Bellcore check
//                         | before recombination      | catches it; service
//                         |                           | retries internally;
//                         |                           | zero bad signatures
//   drop_request_rate     | request frame vanishes    | client times out,
//                         |                           | retries per policy
//   drop_response_rate    | response frame vanishes   | ditto (ambiguous —
//                         |                           | idempotent only)
//   garble_frame_rate     | random byte corrupted     | server answers
//                         |                           | MALFORMED_REQUEST
//   slow_tenant(_delay)   | one tenant's requests     | other tenants'
//                         | delayed at the transport  | latency unaffected
//
// The RNG is a single seeded xoshiro stream behind a mutex: runs are
// reproducible per seed (thread interleaving varies, the *decisions
// per draw* do not), and counters record every injection so tests can
// assert faults actually fired.
#pragma once

#include <cstdint>
#include <mutex>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "obs/metrics.hpp"

namespace mont::server {

struct ChaosOptions {
  std::uint64_t seed = 0xc4a0c4a0ull;
  /// Worker index to stall (-1 = none) and the stall applied before each
  /// issue group it executes.
  int stall_worker = -1;
  std::uint64_t stall_micros = 0;
  /// Probability (0..1) that a CRT half is bit-flipped pre-recombination.
  double corrupt_crt_rate = 0.0;
  /// Probabilities (0..1) of transport faults.
  double drop_request_rate = 0.0;
  double drop_response_rate = 0.0;
  double garble_frame_rate = 0.0;
  /// Tenant whose requests the transport delays (-1 = none).
  std::int64_t slow_tenant = -1;
  std::uint64_t slow_tenant_micros = 0;
};

class ChaosLayer {
 public:
  /// `registry` (may be null) receives the chaos.* injection counters
  /// (chaos.<field> for each metrics_ field below, registered here); with
  /// null they are no-op sinks.  Pass the SigningService's registry
  /// (Options::service.registry) to get one merged chaos.* + server.* +
  /// jobs.* snapshot from the STATS verb.
  explicit ChaosLayer(ChaosOptions options,
                      obs::Registry* registry = nullptr);

  /// Worker hook (ExpService::Options::worker_observer): sleeps when
  /// `worker` is the stalled one.
  void OnWorkerIssue(std::size_t worker);

  /// One decision per CRT half: corrupt it?  (Counts when true.)
  bool ShouldCorruptCrtHalf();
  /// Flips one pseudo-randomly chosen low bit of `value` in place.
  void CorruptValue(bignum::BigUInt& value);

  bool ShouldDropRequest();
  bool ShouldDropResponse();
  /// Garbles one byte of `frame` in place; returns whether it fired.
  bool MaybeGarbleFrame(std::vector<std::uint8_t>& frame);
  /// Transport-side delay for a tenant's request (microseconds, 0 = none).
  std::uint64_t SlowTenantDelayMicros(std::uint32_t tenant_id) const;

 private:
  bool Draw(double rate);

  ChaosOptions options_;
  mutable std::mutex mu_;
  bignum::Xoshiro256 rng_;
  struct {
    obs::Counter worker_stalls;
    obs::Counter crt_corruptions;
    obs::Counter requests_dropped;
    obs::Counter responses_dropped;
    obs::Counter frames_garbled;
  } metrics_;
};

}  // namespace mont::server
