// Open-loop arbitration service: bounded queues, overload policies, and a
// client-side retry/timeout/backoff loop over the core arbiters.
//
// The engine models the ROADMAP north star in miniature: a long-running
// frontend absorbs distribution-driven arrivals (service/arrivals.hpp),
// routes each request to one of R arbitrated resources, and parks it in
// that resource's *bounded* FIFO queue.  Up to `ports` requests per
// resource contend on a round-robin arbiter of the configured structure
// (ServiceOptions::arbiter_kind — flat Fig. 5 chain, arity-4 hierarchical
// tree, or parallel-prefix; one Req line per dispatch port, Fig. 8
// semantics: the grant holds while Req is up, service ends by deasserting
// it), so queueing discipline, arbitration fairness and the 2-cycle
// protocol overhead all appear in the measured latencies.  The kind is
// always an explicit core::ArbiterKind; a caller that wants one picked
// from an fmax budget calls core::select_arbiter_kind first.  The Req
// lines are words (bit p of word p / 64 = port p), up to
// core::kMaxWideInputs ports per resource.
//
// Three overload policies decide what happens when a queue is full:
//  - kBlock: arrivals wait in an (almost) unbounded backlog, like a
//    blocking producer.  Nothing is lost — but clients time out while
//    their requests still occupy the server, so sustained overload
//    collapses goodput (the server does work nobody is waiting for).
//  - kTailDrop: a full queue refuses the arrival with a typed rejection
//    (DiagKind::kRejected).  Sojourn stays bounded by the queue depth.
//  - kAdmitShed: a windowed utilization estimator with hysteresis
//    (arms above 85% utilization, disarms at 70%) sheds arrivals *early* —
//    before the queue fills — once the resource is saturated
//    (DiagKind::kShed), keeping latency low and goodput at capacity.
//
// Rejected and shed requests re-enter through a client-side retry loop:
// exponential backoff with deterministic jitter and a bounded retry
// budget, so a retry storm cannot amplify an overload (each failed
// request injects at most `max_retries` extra attempts, ever).  Requests
// that complete after the client's timeout count as timed out, not as
// goodput.  Every random draw comes from rcarb::Rng streams seeded via
// derive_seed, so a run is a pure function of (options, seed) — the
// load-sweep bench relies on this for byte-identical parallel sweeps.
//
// The service is fault-tolerant end to end.  A seeded fault plan
// (ServiceOptions::faults, fault::plan_service_faults) injects transient
// SEUs into the live arbiters and permanent faults (arbiter latch-up,
// resource failure) into the cycle loop.  Each resource's arbiter can be
// replicated as a self-checking DMR/TMR pair/triple (ServiceOptions::
// self_check) so corrupted grants raise the error net instead of
// double-granting, and a per-resource supervisor
// (degrade::ResourceSupervisor) classifies K-in-W strikes, drains the
// in-flight slots, prices the reconfiguration stall, and fails traffic
// over to the survivors — queued and retrying clients only ever see the
// typed kRejected/kShed diagnostics through the existing backoff loop,
// and the conservation invariant
//   in_flight_at_start + offered ==
//       completed + timed_out + budget_exhausted + in_flight_at_end
// holds under every fault mix (no lost or duplicated completions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/arbiter_factory.hpp"
#include "degrade/degrade.hpp"
#include "fault/fault.hpp"
#include "obs/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "service/arrivals.hpp"
#include "support/rng.hpp"

namespace rcarb::service {

/// What a full bounded queue does to the next arrival.
enum class OverloadPolicy : std::uint8_t {
  kBlock,      // wait in a deep backlog (blocking producer)
  kTailDrop,   // refuse with a typed rejection at the tail
  kAdmitShed,  // shed early once utilization crosses the high-water mark
};

[[nodiscard]] const char* to_string(OverloadPolicy p);

/// Largest legal RetryPolicy::backoff_limit when retries are on.  The
/// engine's retry timers are a ring of bit_ceil(backoff_limit + 1)
/// buckets, so this bounds that ring's memory (~3 MB of empty buckets at
/// the cap).
inline constexpr int kMaxBackoffLimit = 65'536;

/// Client-side failure handling: timeout, retries, backoff.  With
/// max_retries > 0 the engine requires backoff_base >= 1 and backoff_limit
/// in [1, kMaxBackoffLimit]: every retry fires at least one cycle later.
struct RetryPolicy {
  /// Client gives up after this many cycles end-to-end.  A request that
  /// completes later is wasted work (timed out), not goodput.
  int timeout = 512;
  /// Retry budget per request: rejections/sheds beyond this are terminal
  /// (budget_exhausted).  0 = never retry.
  int max_retries = 3;
  int backoff_base = 8;     // first retry delay, cycles
  int backoff_limit = 256;  // exponential growth cap
  /// Deterministic jitter: each retry delay gets + rng(0 .. delay/2),
  /// clamped back to backoff_limit (the cap is a hard upper bound).
  bool jitter = true;
};

/// Pre-jitter delay of retry attempt `attempts` (>= 1): backoff_base
/// doubled per prior attempt, saturating at backoff_limit.  The shift
/// exponent saturates too — a large max_retries walks attempts far past
/// 64, where the naive `base << (attempts - 1)` is undefined behavior
/// (and, on x86's masked shifts, silently cycles back to *short* delays).
[[nodiscard]] std::uint64_t backoff_delay(const RetryPolicy& retry,
                                          int attempts);

/// Full retry delay: backoff_delay plus one jitter draw of
/// next_below(delay / 2 + 1) when enabled, then clamped to backoff_limit.
/// The draw bound matches the pre-clamp delay so seeded jitter streams are
/// unchanged by the final clamp.
[[nodiscard]] std::uint64_t retry_delay(const RetryPolicy& retry,
                                        int attempts, Rng& jitter_rng);

struct ServiceOptions {
  int resources = 4;       // independent arbitrated resources
  /// Dispatch ports (concurrent slots) per resource, in
  /// [1, core::kMaxWideInputs].
  int ports = 8;
  int service_cycles = 6;  // granted busy cycles per request
  int queue_capacity = 32; // bounded FIFO depth per resource
  OverloadPolicy policy = OverloadPolicy::kBlock;

  // ---- Arbiter structure (core/hier.hpp). ----
  /// kFlatFsm (default) is the paper's Fig. 5 chain; kHierarchical (a
  /// tree of arity 4) and kPrefix are the scalable structures.  A caller
  /// that wants the cheapest kind meeting an fmax floor asks
  /// core::select_arbiter_kind first.
  core::ArbiterKind arbiter_kind = core::ArbiterKind::kFlatFsm;

  // ---- kAdmitShed estimator. ----
  int util_window = 256;          // cycles per utilization sample
  int admit_queue_threshold = 8;  // shed only above this queue depth

  // ---- kBlock backlog bound. ----
  /// The "blocking" backlog is bounded at queue_capacity * this factor so
  /// memory stays sane; overflow beyond it is refused like a tail drop.
  int block_backlog_factor = 64;

  RetryPolicy retry;
  ArrivalOptions arrivals;

  /// Warmup: run, then reset all stats *and* the admission estimator
  /// (window phase, busy count, hysteresis arm) so the measured window
  /// starts from a defined estimator state.  Queues, RNG streams and the
  /// retry wheel carry over.
  std::uint64_t warmup_cycles = 10'000;
  std::uint64_t measure_cycles = 20'000;  // measured window
  std::uint64_t seed = 1;
  /// Typed diagnostics recorded in ServiceStats (counters keep counting
  /// past the cap; the records just stop growing).
  int max_diagnostics = 64;

  // ---- Fault tolerance. ----
  /// Replicate each resource's arbiter as a self-checking DMR pair
  /// (kDuplicate: fail-stop, the error net gates grants until resync) or
  /// TMR triple (kTmr: the vote masks a faulty copy and the error net
  /// reports it), for every arbiter kind and port count.
  core::CheckMode self_check = core::CheckMode::kNone;
  /// Strike classification + quarantine/repair supervision
  /// (degrade::ResourceSupervisor).  Disabled (`enabled = false`) the
  /// supervisor still records strike evidence but never quarantines — the
  /// unprotected baseline for the fault benches.
  degrade::DegradeOptions degrade;
  /// Cycle-sorted fault events injected live into the engine, normally
  /// from fault::plan_service_faults.  Only the service-injectable kinds
  /// are accepted (kFsmBitFlip, kArbiterLatchup, kBankFailure; `arbiter`
  /// / `bank` name the target resource).  SEUs and latch-ups hit the
  /// arbiter's state register (core::Arbiter::num_state_bits bits, copies
  /// included) for every kind and width.
  std::vector<fault::FaultEvent> faults;
};

/// Per-resource measurement (one arbiter + one bounded queue).
struct ResourceStats {
  std::string name;
  std::uint64_t offered = 0;    // enqueue attempts routed here
  std::uint64_t completed = 0;  // finished within the client timeout
  std::uint64_t timed_out = 0;  // finished too late (wasted service)
  std::uint64_t rejected = 0;   // refused at the queue tail / backlog cap
  std::uint64_t shed = 0;       // refused early by admission control
  obs::Histogram latency;       // end-to-end cycles, goodput only
  obs::Histogram queue_depth;   // sampled once per cycle
  obs::ArbiterMetrics arbiter;  // wire-level fairness / wait metrics
};

struct ServiceStats {
  std::uint64_t cycles = 0;
  std::uint64_t offered = 0;  // arrivals (first attempts) in the window
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;           // re-attempts injected by clients
  std::uint64_t budget_exhausted = 0;  // requests whose retries ran out
  /// Merged via obs::Histogram::merge from the per-resource histograms
  /// (same path the parallel sweep reduction uses), so totals are
  /// deterministic and order-independent.
  obs::Histogram latency;
  obs::Histogram queue_depth;
  std::vector<ResourceStats> per_resource;
  /// Typed records (kRejected / kShed / kTimedOut, plus kQuarantine /
  /// kRemap / kCapacityExhausted under faults), capped at
  /// ServiceOptions::max_diagnostics.
  std::vector<obs::SimDiagnostic> diagnostics;

  // ---- Fault tolerance (live injection + supervision). ----
  std::uint64_t faults_injected = 0;  // plan events applied in the window
  std::uint64_t error_net_trips = 0;  // self-check comparator-high steps
  std::uint64_t resyncs = 0;          // DMR reloads / TMR minority rewrites
  std::uint64_t multi_grants = 0;     // unprotected mutual-exclusion breaks
  std::uint64_t corrupted = 0;        // completions poisoned by multi-grants
  std::uint64_t failed_service = 0;   // completions lost to a dead resource
  std::uint64_t strikes = 0;          // evidence fed to the supervisor
  std::uint64_t quarantines = 0;      // K-in-W classifications
  std::uint64_t drain_aborts = 0;     // drains force-cut at drain_timeout
  std::uint64_t restored = 0;         // arbiters rewritten, resource back
  std::uint64_t retired = 0;          // resources failed over for good
  std::uint64_t requeued = 0;         // queued/in-flight work failed over
  /// Resource-cycles in service *and* actually functioning (a frozen or
  /// dead arbiter the supervisor has not caught does not count — the
  /// unprotected baseline's availability collapse is the measurement).
  std::uint64_t serving_resource_cycles = 0;
  /// Resource-cycles the engine accounted on a held grant without
  /// stepping the arbiter (its own bookkeeping: every other field is the
  /// same either way).
  std::uint64_t skipped_resource_cycles = 0;
  /// Request conservation across the measured window: work parked in
  /// queues, dispatch slots and the retry wheel at reset and at the end.
  /// Under every fault mix,
  ///   in_flight_at_start + offered ==
  ///       completed + timed_out + budget_exhausted + in_flight_at_end —
  /// corrupted / failed / requeued work is non-terminal (it re-enters the
  /// retry loop), so nothing is lost or double-counted.
  std::uint64_t in_flight_at_start = 0;
  std::uint64_t in_flight_at_end = 0;
  /// Quarantine lifecycle records for the whole run (a repair can span
  /// the warmup reset, so these are not clipped to the window).
  std::vector<degrade::QuarantineRecord> quarantine_events;

  /// Completions-within-timeout per cycle — the robustness headline.
  [[nodiscard]] double goodput() const;
  /// First-attempt arrivals per cycle.
  [[nodiscard]] double offered_rate() const;
  /// serving_resource_cycles / (cycles * resources): the fraction of
  /// resource-time that was genuinely able to serve.  1.0 when idle.
  [[nodiscard]] double availability() const;
  /// Mean repair_cycles over closed quarantine records (classification to
  /// restore/retire), 0 when nothing was repaired.
  [[nodiscard]] double mttr_cycles() const;
  [[nodiscard]] std::string summarize() const;
  /// One-line fault-tolerance summary (errors, strikes, quarantines,
  /// availability, MTTR); complements summarize().
  [[nodiscard]] std::string summarize_faults() const;
};

/// Runs one open-loop session to completion.  Pure function of `options`.
[[nodiscard]] ServiceStats run_service(const ServiceOptions& options);

/// Measured saturation throughput (completions per cycle, timeouts
/// included) of the configuration: the same engine driven far past
/// saturation under tail-drop, where the servers never idle.  Load sweeps
/// express offered load as a fraction of this number.
[[nodiscard]] double measure_capacity(ServiceOptions options);

}  // namespace rcarb::service
