// Open-loop service engine: arrival processes, bounded queues, overload
// policies, and the client-side retry/timeout/backoff loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace rcarb::service {
namespace {

// ---------------------------------------------------------------- arrivals

TEST(Arrivals, DeterministicFromSeed) {
  ArrivalOptions ao;
  ao.kind = ArrivalKind::kBursty;
  ao.rate = 0.4;
  ArrivalProcess a(ao, 123);
  ArrivalProcess b(ao, 123);
  ArrivalProcess c(ao, 124);
  bool any_diff_seed_divergence = false;
  for (int i = 0; i < 5000; ++i) {
    const int x = a.step();
    EXPECT_EQ(x, b.step()) << "same seed must give the same stream";
    if (x != c.step()) any_diff_seed_divergence = true;
  }
  EXPECT_TRUE(any_diff_seed_divergence)
      << "different seeds should give different streams";
}

TEST(Arrivals, MeanMatchesConfiguredRateForEveryKind) {
  // Bursty and diurnal modulate the instantaneous rate but are normalized
  // to preserve the configured mean.
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    ArrivalOptions ao;
    ao.kind = kind;
    ao.rate = 0.3;
    ArrivalProcess p(ao, 7);
    const int n = 200'000;
    std::int64_t total = 0;
    for (int i = 0; i < n; ++i) total += p.step();
    const double mean = static_cast<double>(total) / n;
    EXPECT_NEAR(mean, ao.rate, 0.03) << to_string(kind);
  }
}

TEST(Arrivals, BurstyAndDiurnalActuallyModulate) {
  ArrivalOptions bo;
  bo.kind = ArrivalKind::kBursty;
  bo.rate = 0.5;
  ArrivalProcess burst(bo, 11);
  double lo = 1e9, hi = 0.0;
  for (int i = 0; i < 20'000; ++i) {
    lo = std::min(lo, burst.current_rate());
    hi = std::max(hi, burst.current_rate());
    (void)burst.step();
  }
  EXPECT_LT(lo, 0.5);
  EXPECT_GT(hi, 0.5);

  ArrivalOptions d;
  d.kind = ArrivalKind::kDiurnal;
  d.rate = 0.5;
  d.period = 1000;
  ArrivalProcess diur(d, 11);
  std::vector<double> rates;
  for (int i = 0; i < 1000; ++i) {
    rates.push_back(diur.current_rate());
    (void)diur.step();
  }
  // Triangle: peak mid-period, trough at the ends.
  EXPECT_GT(rates[500], rates[0]);
  EXPECT_GT(rates[500], rates[999]);
}

TEST(Arrivals, ModulatedKindsHoldTheMeanAcrossRatesAndSeeds) {
  // The normalization that keeps bursty/diurnal at the configured mean
  // must not depend on a lucky (rate, seed) pair: the fault benches sweep
  // both and take the mean at face value.
  for (const ArrivalKind kind : {ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    for (const double rate : {0.05, 0.2, 0.8}) {
      for (const std::uint64_t seed : {1ull, 42ull, 9001ull}) {
        ArrivalOptions ao;
        ao.kind = kind;
        ao.rate = rate;
        ArrivalProcess p(ao, seed);
        // >= 100 bursty dwells and >= 29 diurnal periods: enough that the
        // modulation averages out and only the mean remains.
        const int n = 120'000;
        std::int64_t total = 0;
        for (int i = 0; i < n; ++i) total += p.step();
        const double mean = static_cast<double>(total) / n;
        EXPECT_NEAR(mean, rate, std::max(0.012, 0.10 * rate))
            << to_string(kind) << " rate=" << rate << " seed=" << seed;
      }
    }
  }
}

TEST(Arrivals, StreamIsAPureFunctionOfOptionsAndSeed) {
  // No hidden global state: an arrival stream must not shift when other
  // processes or RNG streams are stepped between its draws (the service
  // engine interleaves three streams per run and the sweeps run many
  // engines in one process).
  ArrivalOptions ao;
  ao.kind = ArrivalKind::kBursty;
  ao.rate = 0.4;
  std::vector<int> ref;
  ArrivalProcess alone(ao, 5);
  for (int i = 0; i < 4'096; ++i) ref.push_back(alone.step());

  ArrivalProcess interleaved(ao, 5);
  ArrivalProcess noise(ao, 6);
  Rng unrelated(99);
  for (int i = 0; i < 4'096; ++i) {
    (void)noise.step();
    (void)unrelated.next_below(10);
    EXPECT_EQ(interleaved.step(), ref[static_cast<std::size_t>(i)]);
  }
}

// ----------------------------------------------------------------- engine

/// Small, fast configuration: 2 resources x 4 ports, 4-cycle service, so
/// saturation throughput is ~0.5 requests/cycle.
ServiceOptions small_options() {
  ServiceOptions o;
  o.resources = 2;
  o.ports = 4;
  o.service_cycles = 4;
  o.queue_capacity = 8;
  o.block_backlog_factor = 16;
  o.admit_queue_threshold = 4;
  o.retry.timeout = 128;
  o.warmup_cycles = 2'000;
  o.measure_cycles = 6'000;
  o.seed = 99;
  return o;
}

TEST(ServiceEngine, LowLoadDeliversEverythingOnEveryPolicy) {
  for (const OverloadPolicy pol :
       {OverloadPolicy::kBlock, OverloadPolicy::kTailDrop,
        OverloadPolicy::kAdmitShed}) {
    ServiceOptions o = small_options();
    o.policy = pol;
    o.arrivals.rate = 0.15;  // ~30% of capacity
    const ServiceStats s = run_service(o);
    EXPECT_EQ(s.rejected, 0u) << to_string(pol);
    EXPECT_EQ(s.shed, 0u) << to_string(pol);
    EXPECT_EQ(s.timed_out, 0u) << to_string(pol);
    EXPECT_NEAR(s.goodput(), s.offered_rate(), 0.01) << to_string(pol);
    EXPECT_LE(s.latency.percentile(0.999), 64u) << to_string(pol);
  }
}

TEST(ServiceEngine, BlockingCollapsesUnderSustainedOverload) {
  ServiceOptions o = small_options();
  o.policy = OverloadPolicy::kBlock;
  o.arrivals.rate = 1.5;  // 3x capacity
  const ServiceStats s = run_service(o);
  // The deep backlog pushes every sojourn far past the client timeout:
  // the servers stay busy but the goodput is gone.
  EXPECT_LT(s.goodput(), 0.05);
  EXPECT_GT(s.timed_out, 1000u);
}

TEST(ServiceEngine, TailDropBoundsQueueAndSojourn) {
  ServiceOptions o = small_options();
  o.policy = OverloadPolicy::kTailDrop;
  o.arrivals.rate = 1.5;
  const ServiceStats s = run_service(o);
  EXPECT_GE(s.goodput(), 0.4);  // >= 80% of ~0.5 capacity
  EXPECT_LE(s.queue_depth.max(), 8u) << "bounded queue must stay bounded";
  EXPECT_LE(s.latency.max(),
            static_cast<std::uint64_t>(o.retry.timeout));
  EXPECT_GT(s.rejected, 0u);
}

TEST(ServiceEngine, AdmissionControlRetainsGoodputWithLowTail) {
  ServiceOptions o = small_options();
  o.policy = OverloadPolicy::kAdmitShed;
  o.arrivals.rate = 1.5;
  const ServiceStats s = run_service(o);
  EXPECT_GE(s.goodput(), 0.4);
  EXPECT_GT(s.shed, 0u) << "the estimator must arm and shed early";
  // Shedding at depth 4 keeps sojourns to roughly (queue + ports) bursts,
  // comfortably inside the 128-cycle client timeout.
  EXPECT_LE(s.latency.percentile(0.99), 112u);
  EXPECT_EQ(s.timed_out, 0u);
}

TEST(ServiceEngine, RetryBudgetBoundsAmplification) {
  ServiceOptions o = small_options();
  o.policy = OverloadPolicy::kTailDrop;
  o.arrivals.rate = 1.5;
  o.retry.max_retries = 0;  // no retries at all
  const ServiceStats none = run_service(o);
  EXPECT_EQ(none.retries, 0u);
  EXPECT_EQ(none.budget_exhausted, none.rejected + none.shed)
      << "with a zero budget every failure is terminal";

  o.retry.max_retries = 3;
  const ServiceStats some = run_service(o);
  EXPECT_GT(some.retries, 0u);
  EXPECT_GT(some.budget_exhausted, 0u)
      << "sustained overload must exhaust budgets";
  // Each failed attempt schedules at most one retry, so the storm is
  // bounded by the failure count (small slack: retries scheduled just
  // before the measurement window fire just inside it).
  EXPECT_LE(some.retries, some.rejected + some.shed + 64u);
}

TEST(ServiceEngine, TypedDiagnosticsPerPolicy) {
  auto kinds_of = [](const ServiceStats& s, obs::DiagKind k) {
    std::size_t n = 0;
    for (const auto& d : s.diagnostics)
      if (d.kind == k) ++n;
    return n;
  };
  ServiceOptions o = small_options();
  o.arrivals.rate = 1.5;

  o.policy = OverloadPolicy::kTailDrop;
  const ServiceStats td = run_service(o);
  EXPECT_GT(kinds_of(td, obs::DiagKind::kRejected), 0u);
  EXPECT_LE(td.diagnostics.size(),
            static_cast<std::size_t>(o.max_diagnostics));

  // The estimator starts the measured window disarmed (the warmup reset
  // re-initializes it), so the first util_window of overload rejects at
  // the tail before shedding arms — with retries amplifying each refusal
  // into several records.  The cap must outlast that whole ramp.
  o.policy = OverloadPolicy::kAdmitShed;
  o.max_diagnostics = 8192;
  const ServiceStats as = run_service(o);
  EXPECT_GT(kinds_of(as, obs::DiagKind::kShed), 0u);
  o.max_diagnostics = small_options().max_diagnostics;

  o.policy = OverloadPolicy::kBlock;
  const ServiceStats bl = run_service(o);
  EXPECT_GT(kinds_of(bl, obs::DiagKind::kTimedOut), 0u);
}

TEST(ServiceEngine, PerResourceHistogramsMergeIntoTotals) {
  ServiceOptions o = small_options();
  o.policy = OverloadPolicy::kAdmitShed;
  o.arrivals.rate = 0.4;
  const ServiceStats s = run_service(o);
  std::uint64_t latency_n = 0, completed = 0;
  for (const auto& rs : s.per_resource) {
    latency_n += rs.latency.count();
    completed += rs.completed;
    EXPECT_EQ(rs.arbiter.ports, o.ports);
    EXPECT_TRUE(rs.arbiter.within_n_minus_1_bound()) << rs.name;
  }
  EXPECT_EQ(s.latency.count(), latency_n);
  EXPECT_EQ(s.completed, completed);
  EXPECT_EQ(s.latency.count(), s.completed)
      << "only goodput lands in the latency histogram";
}

TEST(ServiceEngine, MeasuredCapacityIsSaneAndDeterministic) {
  ServiceOptions o = small_options();
  const double cap = measure_capacity(o);
  // 2 resources x one 4-cycle burst each: at most 0.5/cycle, and a busy
  // round-robin pipeline should get close to it.
  EXPECT_GT(cap, 0.35);
  EXPECT_LE(cap, 0.55);
  EXPECT_EQ(cap, measure_capacity(o));
}

TEST(ServiceEngine, RunsAreAPureFunctionOfOptions) {
  ServiceOptions o = small_options();
  o.policy = OverloadPolicy::kAdmitShed;
  o.arrivals.kind = ArrivalKind::kBursty;
  o.arrivals.rate = 0.8;
  const ServiceStats a = run_service(o);
  const ServiceStats b = run_service(o);
  EXPECT_EQ(a.summarize(), b.summarize());
  EXPECT_EQ(a.latency.percentile(0.999), b.latency.percentile(0.999));
  EXPECT_EQ(a.queue_depth.sum(), b.queue_depth.sum());
  EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size());
}

TEST(ServiceEngine, SweepIsByteIdenticalSerialVsParallel) {
  // The bench's sweep discipline in miniature: every cell's seed derives
  // from its index, the reduction runs in index order, so the rendered
  // report cannot depend on the job count.
  auto sweep = [](int jobs) {
    std::vector<std::string> lines;
    ordered_map_reduce<ServiceStats>(
        6,
        [&](std::size_t i) {
          ServiceOptions o = small_options();
          o.policy = static_cast<OverloadPolicy>(i % 3);
          o.arrivals.rate = 0.2 + 0.25 * static_cast<double>(i);
          o.seed = derive_seed(42, i);
          return run_service(o);
        },
        [&](std::size_t i, ServiceStats s) {
          lines.push_back(std::to_string(i) + ": " + s.summarize() +
                          " p999=" +
                          std::to_string(s.latency.percentile(0.999)));
        },
        jobs);
    return lines;
  };
  EXPECT_EQ(sweep(1), sweep(4));
}

TEST(ServiceEngine, RejectsNonsenseOptions) {
  // 65 ports used to be the canonical nonsense value; the wide engine made
  // everything up to kMaxWideInputs legal, so the fence moved there.
  ServiceOptions o = small_options();
  o.ports = core::kMaxWideInputs + 1;
  EXPECT_THROW((void)run_service(o), CheckError);
  o = small_options();
  o.ports = 0;
  EXPECT_THROW((void)run_service(o), CheckError);
  o = small_options();
  o.resources = 0;
  EXPECT_THROW((void)run_service(o), CheckError);
  o = small_options();
  o.queue_capacity = 0;
  EXPECT_THROW((void)run_service(o), CheckError);
}

TEST(ServiceEngine, RejectsRetryTimeoutInsideTheFirstBackoff) {
  // A client whose timeout expires before its first retry even fires can
  // never be served by a retry — every re-attempt is dead on arrival and
  // the retry counters measure nothing.  The engine refuses the combo
  // instead of silently burning the budget.
  ServiceOptions o = small_options();
  o.retry.timeout = 8;
  o.retry.backoff_base = 8;  // first retry lands at +8, at the deadline
  EXPECT_THROW((void)run_service(o), CheckError);
  o.retry.timeout = 9;  // strictly past the first backoff: legal
  EXPECT_NO_THROW((void)run_service(o));
  // With retries disabled the timeout only bounds service, so any
  // positive value is fine.
  o.retry.timeout = 8;
  o.retry.max_retries = 0;
  EXPECT_NO_THROW((void)run_service(o));
}

TEST(ServiceEngine, RejectsRetryDelaysShorterThanOneCycle) {
  // The regression: a zero retry delay filed the retry under the cycle
  // whose timers had already fired, so it never fired.  The request stayed
  // in flight for good, and conservation still balanced, so nothing
  // noticed: 1,598 of 2,431 offered requests sat lost at the end of this
  // run.  Every delay must now be at least one cycle, and the cap on
  // backoff_limit bounds the retry ring.
  ServiceOptions o;
  o.resources = 1;
  o.ports = 2;
  o.policy = OverloadPolicy::kTailDrop;
  o.arrivals.rate = 0.5;
  o.warmup_cycles = 0;
  o.measure_cycles = 5'000;
  o.seed = 3;
  o.retry.backoff_base = 0;
  EXPECT_THROW((void)run_service(o), CheckError);
  o.retry.backoff_base = 8;
  o.retry.backoff_limit = 0;
  EXPECT_THROW((void)run_service(o), CheckError);
  o.retry.backoff_limit = kMaxBackoffLimit + 1;
  EXPECT_THROW((void)run_service(o), CheckError);
  o.retry.backoff_limit = kMaxBackoffLimit;
  EXPECT_NO_THROW((void)run_service(o));
  // The shortest legal delay: every retry fires on the next cycle.
  o.retry.backoff_base = 1;
  o.retry.backoff_limit = 1;
  const ServiceStats s = run_service(o);
  EXPECT_GT(s.retries, 0u);
  EXPECT_EQ(s.in_flight_at_start + s.offered,
            s.completed + s.timed_out + s.budget_exhausted +
                s.in_flight_at_end);
  // Queue, slots and one cycle of retries: nothing is parked for good.
  EXPECT_LE(s.in_flight_at_end,
            static_cast<std::uint64_t>(o.queue_capacity + o.ports + 8));
  // Without retries the delays are never used.
  o.retry.max_retries = 0;
  o.retry.backoff_base = 0;
  o.retry.backoff_limit = 0;
  EXPECT_NO_THROW((void)run_service(o));
}

// ------------------------------------------------- arbiter kind threading

TEST(ServiceEngine, ScalableKindsMatchFlatAggregatesAtWordWidths) {
  // Each resource serves one request at a time (the grant holds until the
  // slot releases) and all three structures are work-conserving, so the
  // aggregate counters are kind-invariant at any width: only the rotation
  // order — and with it individual latencies — may differ.  A timeout far
  // past any sojourn keeps the counters order-independent.
  for (const int ports : {4, 48}) {
    for (const OverloadPolicy pol :
         {OverloadPolicy::kTailDrop, OverloadPolicy::kAdmitShed}) {
      ServiceOptions o = small_options();
      o.ports = ports;
      o.policy = pol;
      o.arrivals.rate = 1.5;
      o.retry.timeout = 1 << 20;
      o.warmup_cycles = 1'000;
      o.measure_cycles = 4'000;
      const ServiceStats flat = run_service(o);
      EXPECT_EQ(flat.per_resource[0].arbiter.kind, "flat");
      for (const core::ArbiterKind kind :
           {core::ArbiterKind::kHierarchical, core::ArbiterKind::kPrefix}) {
        o.arbiter_kind = kind;
        const ServiceStats s = run_service(o);
        const char* label = core::to_string(kind);
        EXPECT_EQ(s.per_resource[0].arbiter.kind, label);
        EXPECT_EQ(s.offered, flat.offered) << label;
        EXPECT_EQ(s.completed, flat.completed) << label;
        EXPECT_EQ(s.rejected, flat.rejected) << label;
        EXPECT_EQ(s.shed, flat.shed) << label;
        EXPECT_EQ(s.timed_out, flat.timed_out) << label;
        EXPECT_EQ(s.retries, flat.retries) << label;
        EXPECT_EQ(s.queue_depth.sum(), flat.queue_depth.sum()) << label;
      }
      o.arbiter_kind = core::ArbiterKind::kFlatFsm;
    }
  }
}

TEST(ServiceEngine, WidePortsServeThroughEveryKind) {
  // Past 64 ports the Req lines span several words; all three kinds (flat through the width-generic RoundRobinArbiter) must carry a
  // 256-port resource.
  for (const core::ArbiterKind kind :
       {core::ArbiterKind::kFlatFsm, core::ArbiterKind::kHierarchical,
        core::ArbiterKind::kPrefix}) {
    ServiceOptions o;
    o.resources = 2;
    o.ports = 256;
    o.service_cycles = 1;
    o.queue_capacity = 64;
    o.policy = OverloadPolicy::kTailDrop;
    o.arbiter_kind = kind;
    o.arrivals.rate = 1.2;  // under the 2/cycle capacity
    o.warmup_cycles = 500;
    o.measure_cycles = 2'000;
    o.seed = 7;
    const ServiceStats s = run_service(o);
    const char* label = core::to_string(kind);
    EXPECT_EQ(s.per_resource[0].arbiter.ports, 256) << label;
    EXPECT_EQ(s.per_resource[0].arbiter.kind, label);
    EXPECT_GT(s.completed, 0u) << label;
    EXPECT_NEAR(s.goodput(), s.offered_rate(), 0.05) << label;
    EXPECT_EQ(s.timed_out, 0u) << label;
  }
}

TEST(ServiceEngine, WideSweepIsByteIdenticalSerialVsParallel) {
  // The bench's wide-port cells in miniature: 256 ports, all three kinds,
  // two loads — the rendered lines must not depend on the job count.
  auto sweep = [](int jobs) {
    std::vector<std::string> lines;
    ordered_map_reduce<ServiceStats>(
        6,
        [&](std::size_t i) {
          ServiceOptions o;
          o.resources = 2;
          o.ports = 256;
          o.service_cycles = 1;
          o.queue_capacity = 32;
          o.policy = OverloadPolicy::kTailDrop;
          constexpr core::ArbiterKind kKinds[] = {
              core::ArbiterKind::kFlatFsm, core::ArbiterKind::kHierarchical,
              core::ArbiterKind::kPrefix};
          o.arbiter_kind = kKinds[i % 3];
          o.arrivals.rate = 0.8 + 0.6 * static_cast<double>(i / 3);
          o.warmup_cycles = 200;
          o.measure_cycles = 1'500;
          o.seed = derive_seed(77, i);
          return run_service(o);
        },
        [&](std::size_t i, ServiceStats s) {
          lines.push_back(std::to_string(i) + ": " + s.summarize());
        },
        jobs);
    return lines;
  };
  EXPECT_EQ(sweep(1), sweep(4));
}

// ------------------------------------------------ wide-port fingerprints

/// FNV-1a folded over 64-bit values, one byte at a time.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(const obs::Histogram& hist) {
    add(hist.count());
    add(hist.sum());
    add(hist.max());
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) add(hist.bucket(i));
    add(hist.percentile(0.5));
    add(hist.percentile(0.99));
  }
};

/// Every ServiceStats counter, the latency and queue-depth histogram sums,
/// then one hash over each resource's counters, histograms and
/// ArbiterMetrics (per port).
std::string fingerprint(const ServiceStats& s) {
  Fnv arb;
  for (const ResourceStats& rs : s.per_resource) {
    for (const std::uint64_t v :
         {rs.offered, rs.completed, rs.timed_out, rs.rejected, rs.shed})
      arb.add(v);
    arb.add(rs.latency);
    arb.add(rs.queue_depth);
    const obs::ArbiterMetrics& m = rs.arbiter;
    arb.add(m.grant_latency);
    arb.add(m.hold_length);
    arb.add(m.queue_depth);
    for (const obs::PortMetrics& p : m.port)
      for (const std::uint64_t v : {p.grants, p.granted_cycles, p.wait_cycles,
                                    p.max_wait, p.max_turns_waited})
        arb.add(v);
    for (const std::uint64_t v :
         {m.watchdog_fires, m.watchdog_releases, m.backoffs, m.retries,
          m.error_net_trips, m.resyncs})
      arb.add(v);
  }
  std::string out;
  for (const std::uint64_t v :
       {s.cycles, s.offered, s.completed, s.timed_out, s.rejected, s.shed,
        s.retries, s.budget_exhausted, s.faults_injected, s.error_net_trips,
        s.resyncs, s.multi_grants, s.corrupted, s.failed_service, s.strikes,
        s.quarantines, s.drain_aborts, s.restored, s.retired, s.requeued,
        s.serving_resource_cycles, s.in_flight_at_start, s.in_flight_at_end,
        s.latency.sum(), s.queue_depth.sum(), arb.h})
    out += std::to_string(v) + " ";
  out.pop_back();
  return out;
}

TEST(ServiceEngine, WidePortFingerprintsArePinned) {
  // The smoke goldens run 8, 64 and 256 ports: one word, or whole words.
  // These widths leave the last slot word partial (or one bit past a
  // word), and 3x overload fills the slots, so dispatch, the Req words
  // and the probe all reach the last word.  The values were recorded from
  // the engine that rebuilt the Req words by scanning every slot each
  // cycle.
  static const char* const kPinned[] = {
      "1600 3226 1066 0 851 10293 8986 2148 0 0 0 0 0 0 0 0 0 0 0 0 3200 268 "
      "280 83210 26732 4047280259978515874",
      "1600 3226 1066 0 11202 0 9044 2153 0 0 0 0 0 0 0 0 0 0 0 0 3200 286 "
      "293 108976 50111 5733302270621069725",
      "1600 3226 1066 0 11209 0 9051 2141 0 0 0 0 0 0 0 0 0 0 0 0 3200 379 "
      "398 260738 203714 3669082733826988328",
      "1600 3226 1066 0 851 10293 8986 2148 0 0 0 0 0 0 0 0 0 0 0 0 3200 268 "
      "280 83210 26732 7291304750560870902",
      "1600 3226 1066 0 11202 0 9044 2153 0 0 0 0 0 0 0 0 0 0 0 0 3200 286 "
      "293 108976 50111 7424276869363581985",
      "1600 3226 1066 0 11209 0 9051 2141 0 0 0 0 0 0 0 0 0 0 0 0 3200 379 "
      "398 260738 203714 14465963363987727532",
      "1600 3226 1066 0 851 10293 8986 2148 0 0 0 0 0 0 0 0 0 0 0 0 3200 268 "
      "280 83210 26732 4047280259978515874",
      "1600 3226 1066 0 11202 0 9044 2153 0 0 0 0 0 0 0 0 0 0 0 0 3200 286 "
      "293 108976 50111 5733302270621069725",
      "1600 3226 1066 0 11209 0 9051 2141 0 0 0 0 0 0 0 0 0 0 0 0 3200 379 "
      "398 260738 203714 3669082733826988328",
      "1600 3218 1066 0 825 10281 8955 2132 0 0 0 0 0 0 0 0 0 0 0 0 3200 249 "
      "269 83794 26728 4398227368677027337",
      "1600 3218 1066 0 11142 0 8991 2138 0 0 0 0 0 0 0 0 0 0 0 0 3200 273 "
      "287 107571 50113 4575090931662943151",
      "1600 3218 1066 0 11157 0 9006 2131 0 0 0 0 0 0 0 0 0 0 0 0 3200 363 "
      "384 260876 203708 8070674514993335896",
      "1600 3218 1066 0 825 10281 8955 2132 0 0 0 0 0 0 0 0 0 0 0 0 3200 249 "
      "269 83794 26728 1690337457704740285",
      "1600 3218 1066 0 11142 0 8991 2138 0 0 0 0 0 0 0 0 0 0 0 0 3200 273 "
      "287 107571 50113 2130255826995184931",
      "1600 3218 1066 0 11157 0 9006 2131 0 0 0 0 0 0 0 0 0 0 0 0 3200 363 "
      "384 260876 203708 13148335684076507964",
      "1600 3218 1066 0 825 10281 8955 2132 0 0 0 0 0 0 0 0 0 0 0 0 3200 249 "
      "269 83794 26728 4398227368677027337",
      "1600 3218 1066 0 11142 0 8991 2138 0 0 0 0 0 0 0 0 0 0 0 0 3200 273 "
      "287 107571 50113 4575090931662943151",
      "1600 3218 1066 0 11157 0 9006 2131 0 0 0 0 0 0 0 0 0 0 0 0 3200 363 "
      "384 260876 203708 8070674514993335896",
      "1600 3173 1066 0 768 10189 8851 2106 0 0 0 0 0 0 0 0 0 0 0 0 3200 272 "
      "273 83372 26734 17985849936953950481",
      "1600 3173 1066 0 10985 0 8879 2108 0 0 0 0 0 0 0 0 0 0 0 0 3200 288 "
      "287 108301 50111 3986543385757287362",
      "1600 3173 1066 0 11024 0 8918 2110 0 0 0 0 0 0 0 0 0 0 0 0 3200 387 "
      "384 260726 203709 17385667291238428224",
      "1600 3173 1066 0 768 10189 8851 2106 0 0 0 0 0 0 0 0 0 0 0 0 3200 272 "
      "273 83372 26734 9287656506211598681",
      "1600 3173 1066 0 10985 0 8879 2108 0 0 0 0 0 0 0 0 0 0 0 0 3200 288 "
      "287 108301 50111 16598045398007287906",
      "1600 3173 1066 0 11024 0 8918 2110 0 0 0 0 0 0 0 0 0 0 0 0 3200 387 "
      "384 260726 203709 6405332419294638032",
      "1600 3173 1066 0 768 10189 8851 2106 0 0 0 0 0 0 0 0 0 0 0 0 3200 272 "
      "273 83372 26734 17985849936953950481",
      "1600 3173 1066 0 10985 0 8879 2108 0 0 0 0 0 0 0 0 0 0 0 0 3200 288 "
      "287 108301 50111 3986543385757287362",
      "1600 3173 1066 0 11024 0 8918 2110 0 0 0 0 0 0 0 0 0 0 0 0 3200 387 "
      "384 260726 203709 17385667291238428224",
      "1600 3217 1066 0 799 10297 8947 2100 0 0 0 0 0 0 0 0 0 0 0 0 3200 373 "
      "424 84783 26726 18215332345279119216",
      "1600 3217 1066 0 11098 0 8949 2105 0 0 0 0 0 0 0 0 0 0 0 0 3200 393 "
      "439 108322 50112 3898878110029611602",
      "1600 3217 1066 0 11094 0 8945 2086 0 0 0 0 0 0 0 0 0 0 0 0 3200 474 "
      "539 254769 203714 14113082203121104259",
      "1600 3217 1066 0 799 10297 8947 2100 0 0 0 0 0 0 0 0 0 0 0 0 3200 373 "
      "424 84783 26726 2460893071829835840",
      "1600 3217 1066 0 11098 0 8949 2105 0 0 0 0 0 0 0 0 0 0 0 0 3200 393 "
      "439 108322 50112 11682502919141931498",
      "1600 3217 1066 0 11094 0 8945 2086 0 0 0 0 0 0 0 0 0 0 0 0 3200 474 "
      "539 254769 203714 7833283801260040843",
      "1600 3217 1066 0 799 10297 8947 2100 0 0 0 0 0 0 0 0 0 0 0 0 3200 373 "
      "424 84783 26726 18215332345279119216",
      "1600 3217 1066 0 11098 0 8949 2105 0 0 0 0 0 0 0 0 0 0 0 0 3200 393 "
      "439 108322 50112 3898878110029611602",
      "1600 3217 1066 0 11094 0 8945 2086 0 0 0 0 0 0 0 0 0 0 0 0 3200 474 "
      "539 254769 203714 14113082203121104259",
      "1600 3230 808 258 0 3356 2658 589 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2125 32596 7868 1489888492124580673",
      "1600 3230 808 258 3278 0 2596 563 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2151 38863 15806 6162910094198828674",
      "1600 3230 808 258 2779 0 2193 469 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2245 63135 59613 16552399197064372085",
      "1600 3230 939 127 0 3356 2658 589 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2125 46144 7868 1406227269338340329",
      "1600 3230 939 127 3278 0 2596 563 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2151 52411 15806 2748764671506167215",
      "1600 3230 939 127 2779 0 2193 469 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2245 76683 59613 5523019327060817265",
      "1600 3230 808 258 0 3356 2658 589 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2125 32596 7868 1489888492124580673",
      "1600 3230 808 258 3278 0 2596 563 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2151 38863 15806 6162910094198828674",
      "1600 3230 808 258 2779 0 2193 469 0 0 0 0 0 0 0 0 0 0 0 0 3200 550 "
      "2245 63135 59613 16552399197064372085",
  };
  const OverloadPolicy policies[] = {OverloadPolicy::kAdmitShed,
                                     OverloadPolicy::kTailDrop,
                                     OverloadPolicy::kBlock};
  std::size_t i = 0;
  for (const int ports : {63, 64, 65, 129, 1000}) {
    for (const core::ArbiterKind kind :
         {core::ArbiterKind::kFlatFsm, core::ArbiterKind::kHierarchical,
          core::ArbiterKind::kPrefix}) {
      for (const OverloadPolicy pol : policies) {
        ServiceOptions o;
        o.resources = 2;
        o.ports = ports;
        o.service_cycles = 3;
        o.queue_capacity = 16;
        o.admit_queue_threshold = 8;
        o.block_backlog_factor = 4;
        o.util_window = 128;
        o.policy = pol;
        o.arbiter_kind = kind;
        o.arrivals.rate = 2.0;  // 3x the 2/3 per cycle capacity
        o.retry.timeout = 384;
        o.warmup_cycles = 400;
        o.measure_cycles = 1'600;
        o.seed = derive_seed(0xf1f0, static_cast<std::uint64_t>(ports));
        ASSERT_LT(i, std::size(kPinned));
        EXPECT_EQ(fingerprint(run_service(o)), kPinned[i])
            << ports << " ports, " << core::to_string(kind) << ", "
            << to_string(pol);
        ++i;
      }
    }
  }
  EXPECT_EQ(i, std::size(kPinned));
}

TEST(ServiceEngine, EstimatorRestartsAtTheMeasurementBoundary) {
  // Regression for the warmup -> measure reset: the estimator's window
  // phase and armed/disarmed flag used to leak across reset_stats, so the
  // first shed could land less than one full util_window into the measured
  // run — and *where* it landed depended on warmup_cycles modulo
  // util_window.  Post-fix the estimator cannot arm before one full
  // window, whatever the warmup length.
  for (const std::uint64_t warmup : {0ull, 128ull, 384ull}) {
    ServiceOptions o = small_options();
    o.policy = OverloadPolicy::kAdmitShed;
    o.arrivals.rate = 1.5;  // saturating: util ~1.0 in every window
    o.util_window = 256;
    o.warmup_cycles = warmup;
    o.measure_cycles = 4'000;
    o.max_diagnostics = 4'096;
    const ServiceStats s = run_service(o);
    EXPECT_GT(s.shed, 0u) << "warmup " << warmup;
    std::uint64_t first_shed = 0;
    bool found = false;
    for (const auto& d : s.diagnostics) {
      if (d.kind != obs::DiagKind::kShed) continue;
      first_shed = d.cycle;
      found = true;
      break;
    }
    ASSERT_TRUE(found) << "warmup " << warmup;
    EXPECT_GE(first_shed, warmup + 256) << "warmup " << warmup;
  }
}

// ---------------------------------------------------------- retry/backoff

TEST(RetryDelay, SaturatesInsteadOfOverflowingTheShift) {
  RetryPolicy r;  // base 8, limit 256
  EXPECT_EQ(backoff_delay(r, 1), 8u);
  EXPECT_EQ(backoff_delay(r, 2), 16u);
  EXPECT_EQ(backoff_delay(r, 6), 256u);
  EXPECT_EQ(backoff_delay(r, 7), 256u);  // clamped past the limit
  // The regression: attempts past 64 made `base << (attempts - 1)`
  // undefined (x86's masked shift cycled the delay back to `base`).
  // Deep retry budgets are legal, so the exponent must saturate.
  for (const int attempts : {62, 63, 64, 65, 66, 100, 1'000'000})
    EXPECT_EQ(backoff_delay(r, attempts), 256u) << "attempts " << attempts;

  RetryPolicy tiny;
  tiny.backoff_base = 0;
  tiny.backoff_limit = 256;
  EXPECT_EQ(backoff_delay(tiny, 1), 0u);
  EXPECT_EQ(backoff_delay(tiny, 80), 0u);
}

TEST(RetryDelay, JitterNeverExceedsTheConfiguredCap) {
  // The regression: jitter used to be added *after* the backoff_limit
  // clamp, so a capped delay could exceed the cap by 50%.
  RetryPolicy r;
  r.backoff_base = 8;
  r.backoff_limit = 64;
  r.jitter = true;
  Rng rng(2024);
  bool any_jitter = false;
  for (int attempts = 1; attempts <= 80; ++attempts) {
    const std::uint64_t d = retry_delay(r, attempts, rng);
    EXPECT_LE(d, 64u) << "attempts " << attempts;
    if (d > backoff_delay(r, attempts)) any_jitter = true;
  }
  EXPECT_TRUE(any_jitter) << "jitter must still be applied below the cap";
}

TEST(RetryDelay, JitterStreamIsDeterministicAndBoundMatchesTheDelay) {
  // The fix must not change how many draws the jitter stream consumes or
  // their bounds, so seeded runs stay byte-identical: one draw per retry,
  // bounded by half the pre-jitter (already limit-clamped) delay.
  RetryPolicy r;
  Rng a(7), b(7);
  for (int attempts = 1; attempts <= 70; ++attempts) {
    const std::uint64_t bd = backoff_delay(r, attempts);
    const std::uint64_t want =
        std::min(bd + b.next_below(bd / 2 + 1),
                 static_cast<std::uint64_t>(r.backoff_limit));
    EXPECT_EQ(retry_delay(r, attempts, a), want) << "attempts " << attempts;
  }
}

TEST(ServiceEngine, HugeRetryBudgetsSurviveDeepBackoff) {
  // One slow server and a large retry budget walk `attempts` far past 64;
  // before the saturating fix this tripped UBSan (and silently produced
  // short delays on x86).  The engine must keep its accounting intact.
  ServiceOptions o;
  o.resources = 1;
  o.ports = 1;
  o.queue_capacity = 1;
  o.service_cycles = 1'000'000;  // the one server never finishes
  o.policy = OverloadPolicy::kTailDrop;
  o.arrivals.rate = 0.9;
  o.retry.max_retries = 200;
  o.retry.backoff_base = 1;
  o.retry.backoff_limit = 2;
  o.warmup_cycles = 0;
  o.measure_cycles = 4'000;
  o.seed = 5;
  const ServiceStats s = run_service(o);
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.budget_exhausted, 0u);
}

}  // namespace
}  // namespace rcarb::service
