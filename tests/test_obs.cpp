// Observability layer: histograms, per-arbiter metric probes, the trace
// sink with its JSONL / Chrome exporters, BenchReporter, degenerate
// arbiter sizes (N=1 elided, N=2 smallest real) through generator ->
// insertion -> simulation, and run-to-run determinism of the diagnostic
// and trace streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/generator.hpp"
#include "core/insertion.hpp"
#include "fault/fault.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rcsim/system_sim.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace rcarb {
namespace {

using core::Binding;
using core::InsertionResult;
using obs::Histogram;
using obs::TraceBuffer;
using obs::TraceEvent;
using obs::TraceKind;
using rcsim::SimOptions;
using rcsim::SimResult;
using rcsim::SystemSimulator;
using tg::Program;
using tg::TaskGraph;

Binding single_bank_binding(const TaskGraph& g, std::size_t num_tasks) {
  Binding b;
  b.task_to_pe.assign(num_tasks, 0);
  b.segment_to_bank.assign(g.num_segments(), 0);
  b.channel_to_phys.assign(g.num_channels(), -1);
  b.num_banks = 1;
  b.bank_names = {"BANK"};
  return b;
}

/// `num_tasks` tasks each storing `accesses` words into one shared bank.
TaskGraph contention_graph(int num_tasks, int accesses) {
  TaskGraph g{"obs"};
  g.add_segment("s0", 64, 16);
  for (int t = 0; t < num_tasks; ++t) {
    Program p;
    p.load_imm(0, 0);
    for (int i = 0; i < accesses; ++i)
      p.store(0, 0, 0, (t * accesses + i) % 16);
    p.halt();
    std::string name = "t";  // built piecewise: GCC 12's -Wrestrict trips
    name += std::to_string(t);  // on `const char* + std::string&&` at -O3
    g.add_task(name, p, 1);
  }
  return g;
}

// ----------------------------------------------------------------- histogram

TEST(ObsHistogram, BucketsPowersOfTwo) {
  Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 100ull})
    h.record(v);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 125u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2,3}
  EXPECT_EQ(h.bucket(3), 2u);  // {4..7}
  EXPECT_EQ(h.bucket(4), 1u);  // {8..15}
  EXPECT_EQ(h.bucket(7), 1u);  // {64..127}
  EXPECT_EQ(Histogram::bucket_range(3).first, 4u);
  EXPECT_EQ(Histogram::bucket_range(3).second, 7u);
}

TEST(ObsHistogram, PercentileReturnsBucketUpperBound) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(1);
  h.record(64);
  EXPECT_EQ(h.percentile(0.5), 1u);
  EXPECT_EQ(h.percentile(0.99), 1u);  // rank 98 of 100 is still a 1
  EXPECT_EQ(h.percentile(1.0), 64u);  // 64's bucket tops at 127, clamped
  EXPECT_EQ(h.percentile(0.0), 1u);
  Histogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0u);
  EXPECT_EQ(empty.summarize(), "n=0");
}

TEST(ObsHistogram, PercentileEdges) {
  // The four boundary cases of the cumulative-rank walk, pinned:
  // p = 0.0 answers the minimum's bucket, p = 1.0 the maximum's (clamped
  // to the observed max), an empty histogram answers 0 for every p, and a
  // histogram with all samples in one bucket answers that bucket always.
  Histogram empty;
  for (double p : {0.0, 0.25, 0.5, 1.0}) EXPECT_EQ(empty.percentile(p), 0u);

  Histogram one_bucket;  // all counts in major bucket [4,7]
  for (std::uint64_t v : {4ull, 5ull, 6ull, 7ull, 5ull}) one_bucket.record(v);
  // Small values land in exact (1-wide) sub-buckets, so the nearest-rank
  // answers are the sorted samples {4,5,5,6,7} themselves.
  EXPECT_EQ(one_bucket.percentile(0.0), 4u);  // rank 0
  EXPECT_EQ(one_bucket.percentile(0.3), 5u);  // rank 1
  EXPECT_EQ(one_bucket.percentile(0.7), 5u);  // rank 2
  EXPECT_EQ(one_bucket.percentile(1.0), 7u);  // rank 4

  Histogram spread;  // min sub-bucket {1}, max in major [8,15]
  spread.record(1);
  spread.record(2);
  spread.record(9);
  EXPECT_EQ(spread.percentile(0.0), 1u);   // rank 0
  EXPECT_EQ(spread.percentile(0.5), 2u);   // rank 1 -> exact sub-bucket {2}
  EXPECT_EQ(spread.percentile(1.0), 9u);   // rank 2, clamped to max

  // percentile() never exceeds max(): a single sample at a bucket's lower
  // edge must not report the bucket's upper edge.
  Histogram single;
  single.record(64);
  EXPECT_EQ(single.percentile(0.5), 64u);
  EXPECT_EQ(single.percentile(1.0), 64u);

  // Out-of-domain p is clamped into [0, 1].
  EXPECT_EQ(spread.percentile(-3.0), 1u);
  EXPECT_EQ(spread.percentile(7.0), 9u);
}

TEST(ObsHistogram, LinearSubBucketsBoundTailQuantization) {
  // The pure pow-2 form answered any percentile with the enclosing pow-2
  // bucket's upper edge — up to 2x the true value.  The HDR sub-buckets
  // bound the overshoot to span/16 (6.25%).  Pinned on 1..1000 recorded
  // once each:
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  // p50 rank 499 -> value 500, major [256,511] sliced by 16 (step 16):
  // sub upper 511 would have been the pow-2 answer too; p90 shows the fix.
  EXPECT_EQ(h.percentile(0.50), 511u);
  // p90 rank 899 -> value 900, major [512,1023] step 32 -> upper 927
  // (the pow-2 form said 1000 after the max clamp; true value 900).
  EXPECT_EQ(h.percentile(0.90), 927u);
  // p999 rank 998 -> value 999 -> sub [992,1023] clamped to max 1000.
  EXPECT_EQ(h.percentile(0.999), 1000u);
  // Every percentile overshoots its true value by at most 1/16 + the clamp.
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const auto truth = static_cast<std::uint64_t>(p * 999.0) + 1;
    EXPECT_GE(h.percentile(p), truth) << p;
    EXPECT_LE(h.percentile(p), truth + truth / 16 + 1) << p;
  }
  // Values below 2^4 stay exact.
  Histogram small;
  for (std::uint64_t v : {3ull, 3ull, 3ull, 11ull}) small.record(v);
  EXPECT_EQ(small.percentile(0.5), 3u);
  EXPECT_EQ(small.percentile(1.0), 11u);
}

TEST(ObsHistogram, MergeMatchesRecordingEverything) {
  // merge() must be indistinguishable from having recorded every value
  // into one histogram — the contract the parallel sweep reduction needs.
  Rng rng(77);
  Histogram parts[4];
  Histogram whole;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t v = rng.next_u64() >> (rng.next_below(60));
    parts[i % 4].record(v);
    whole.record(v);
  }
  Histogram merged;
  for (const Histogram& part : parts) merged.merge(part);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.max(), whole.max());
  for (int i = 0; i < Histogram::kBuckets; ++i)
    EXPECT_EQ(merged.bucket(i), whole.bucket(i)) << i;
  for (double p : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(merged.percentile(p), whole.percentile(p)) << p;
  // Merging an empty histogram is a no-op; merging into empty copies.
  Histogram empty;
  merged.merge(empty);
  EXPECT_EQ(merged.count(), whole.count());
  empty.merge(whole);
  EXPECT_EQ(empty.percentile(0.99), whole.percentile(0.99));
}

TEST(ObsHistogram, MergeCountsSaturateInsteadOfWrapping) {
  // Doubling a one-sample histogram into itself 64+ times would wrap a
  // plain uint64 counter back through zero; saturating arithmetic pins
  // every counter at UINT64_MAX and keeps percentiles sane.
  Histogram h;
  h.record(5);
  for (int i = 0; i < 70; ++i) h.merge(h);
  EXPECT_EQ(h.count(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.sum(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.max(), 5u);
  EXPECT_EQ(h.percentile(0.999), 5u);
  EXPECT_EQ(h.bucket(3), std::numeric_limits<std::uint64_t>::max());
  // One more record() on a saturated histogram stays pinned.
  h.record(5);
  EXPECT_EQ(h.count(), std::numeric_limits<std::uint64_t>::max());
}

// ------------------------------------------------------------ metric probes

TEST(ObsMetrics, ProbeAgreesWithArbiterStats) {
  TaskGraph g = contention_graph(3, 5);
  Binding b = single_bank_binding(g, 3);
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  SimOptions so;
  so.arbiter_metrics = true;
  SystemSimulator sim(ins.graph, b, ins.plan, so);
  const SimResult r = sim.run({0, 1, 2});
  ASSERT_EQ(r.arbiter_obs.size(), 1u);
  const obs::ArbiterMetrics& m = r.arbiter_obs[0];
  EXPECT_EQ(m.name, "BANK");
  EXPECT_EQ(m.ports, 3);
  // The probe observes the same wire stream the simulator accounts.
  EXPECT_EQ(m.grant_latency.count(), r.arbiters[0].grants);
  std::uint64_t probe_granted = 0;
  std::uint64_t probe_grants = 0;
  for (const auto& p : m.port) {
    probe_granted += p.granted_cycles;
    probe_grants += p.grants;
  }
  EXPECT_EQ(probe_grants, r.arbiters[0].grants);
  EXPECT_EQ(probe_granted, r.arbiters[0].granted_cycles);
  EXPECT_LE(m.grant_latency.max(), r.arbiters[0].max_wait);
  // Round-robin obeys the paper's N-1 grant-turn bound, and saturated
  // symmetric contention is near-perfectly fair.
  EXPECT_TRUE(m.within_n_minus_1_bound());
  EXPECT_LE(m.worst_turns_waited(), 2u);
  EXPECT_GT(m.fairness_jain(), 0.9);
  EXPECT_LE(m.fairness_jain(), 1.0);
  EXPECT_FALSE(m.summarize().empty());
}

TEST(ObsMetrics, DisabledLeavesNoProbesAndSameSimulation) {
  TaskGraph g = contention_graph(3, 5);
  Binding b = single_bank_binding(g, 3);
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  const SimOptions off;  // metrics are opt-in; the default attaches nothing
  SimOptions on;
  on.arbiter_metrics = true;
  SystemSimulator sim_off(ins.graph, b, ins.plan, off);
  SystemSimulator sim_on(ins.graph, b, ins.plan, on);
  const SimResult a = sim_off.run({0, 1, 2});
  const SimResult c = sim_on.run({0, 1, 2});
  EXPECT_TRUE(a.arbiter_obs.empty());
  EXPECT_EQ(a.cycles, c.cycles);
  EXPECT_EQ(a.arbiters[0].grants, c.arbiters[0].grants);
}

/// The O(ports)-per-step probe that the edge-driven ArbiterProbe replaced,
/// kept verbatim as the oracle for the equivalence fuzz below.
class ReferenceProbe {
 public:
  explicit ReferenceProbe(obs::ArbiterMetrics* metrics) : m_(metrics) {
    const auto n = static_cast<std::size_t>(m_->ports);
    m_->port.assign(n, obs::PortMetrics{});
    wait_.assign(n, 0);
    turns_.assign(n, 0);
  }

  void on_step(std::span<const std::uint64_t> requests, int grant) {
    const auto ports = static_cast<std::size_t>(m_->ports);
    const auto req_bit = [&](std::size_t i) {
      const std::size_t w = i >> 6;
      return w < requests.size() && ((requests[w] >> (i & 63)) & 1) != 0;
    };
    if (grant != holder_) {
      if (holder_ >= 0) {
        m_->hold_length.record(hold_len_);
        m_->port[static_cast<std::size_t>(holder_)].granted_cycles +=
            hold_len_;
      }
      if (grant >= 0) {
        const auto g = static_cast<std::size_t>(grant);
        m_->port[g].grants += 1;
        m_->grant_latency.record(wait_[g]);
        m_->port[g].max_wait = std::max(m_->port[g].max_wait, wait_[g]);
        m_->port[g].max_turns_waited =
            std::max(m_->port[g].max_turns_waited, turns_[g]);
        wait_[g] = 0;
        turns_[g] = 0;
        std::uint64_t depth = 0;
        for (std::size_t w = 0; w * 64 < ports && w < requests.size(); ++w) {
          std::uint64_t r = requests[w];
          if ((w + 1) * 64 > ports && (ports & 63) != 0)
            r &= (1ull << (ports & 63)) - 1;
          depth += static_cast<std::uint64_t>(std::popcount(r));
        }
        m_->queue_depth.record(depth);
        for (std::size_t i = 0; i < turns_.size(); ++i)
          if (i != g && req_bit(i)) turns_[i] += 1;
      }
      holder_ = grant;
      hold_len_ = 0;
    }
    if (holder_ >= 0) hold_len_ += 1;
    for (std::size_t i = 0; i < wait_.size(); ++i) {
      if (!req_bit(i)) {
        if (static_cast<int>(i) != holder_) wait_[i] = 0;
        continue;
      }
      if (static_cast<int>(i) != holder_) {
        wait_[i] += 1;
        m_->port[i].wait_cycles += 1;
      }
    }
  }

  void finish() {
    if (holder_ >= 0) {
      m_->hold_length.record(hold_len_);
      m_->port[static_cast<std::size_t>(holder_)].granted_cycles += hold_len_;
    }
    holder_ = -1;
    hold_len_ = 0;
  }

 private:
  obs::ArbiterMetrics* m_;
  int holder_ = -1;
  std::uint64_t hold_len_ = 0;
  std::vector<std::uint64_t> wait_;
  std::vector<std::uint64_t> turns_;
};

::testing::AssertionResult same_histogram(const Histogram& a,
                                          const Histogram& b,
                                          const char* what) {
  if (a.count() != b.count() || a.sum() != b.sum() || a.max() != b.max())
    return ::testing::AssertionFailure()
           << what << ": n/sum/max " << a.count() << "/" << a.sum() << "/"
           << a.max() << " vs " << b.count() << "/" << b.sum() << "/"
           << b.max();
  for (int i = 0; i < Histogram::kBuckets; ++i)
    if (a.bucket(i) != b.bucket(i))
      return ::testing::AssertionFailure() << what << ": bucket " << i;
  for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0})
    if (a.percentile(p) != b.percentile(p))
      return ::testing::AssertionFailure() << what << ": percentile " << p;
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_metrics(const obs::ArbiterMetrics& want,
                                        const obs::ArbiterMetrics& got) {
  for (const auto& [a, b, what] :
       {std::tuple{&want.grant_latency, &got.grant_latency, "grant_latency"},
        std::tuple{&want.hold_length, &got.hold_length, "hold_length"},
        std::tuple{&want.queue_depth, &got.queue_depth, "queue_depth"}}) {
    const ::testing::AssertionResult same = same_histogram(*a, *b, what);
    if (!same) return same;
  }
  if (want.port.size() != got.port.size())
    return ::testing::AssertionFailure() << "port vector size";
  for (std::size_t i = 0; i < want.port.size(); ++i) {
    const obs::PortMetrics& a = want.port[i];
    const obs::PortMetrics& b = got.port[i];
    if (a.grants != b.grants || a.granted_cycles != b.granted_cycles ||
        a.wait_cycles != b.wait_cycles || a.max_wait != b.max_wait ||
        a.max_turns_waited != b.max_turns_waited)
      return ::testing::AssertionFailure()
             << "port " << i << ": grants/granted/wait/max_wait/turns "
             << a.grants << "/" << a.granted_cycles << "/" << a.wait_cycles
             << "/" << a.max_wait << "/" << a.max_turns_waited << " vs "
             << b.grants << "/" << b.granted_cycles << "/" << b.wait_cycles
             << "/" << b.max_wait << "/" << b.max_turns_waited;
  }
  if (want.watchdog_fires != got.watchdog_fires ||
      want.watchdog_releases != got.watchdog_releases ||
      want.backoffs != got.backoffs || want.retries != got.retries ||
      want.error_net_trips != got.error_net_trips ||
      want.resyncs != got.resyncs || want.ports != got.ports)
    return ::testing::AssertionFailure() << "scalar counters";
  return ::testing::AssertionSuccess();
}

/// Zeroes the metrics in place, the way the service's warmup reset does
/// (the probes keep borrowing the same object).
void reset_in_place(obs::ArbiterMetrics& m) {
  obs::ArbiterMetrics fresh;
  fresh.ports = m.ports;
  fresh.port.assign(static_cast<std::size_t>(m.ports), obs::PortMetrics{});
  m = fresh;
}

TEST(ObsMetrics, EdgeDrivenProbeMatchesTheFullScanProbe) {
  // Seeded random request/grant streams, far rougher than any arbiter
  // emits: several lines rise and fall in one step, grants go to ports
  // without Req, to nobody, and stay on holders that dropped Req; dirty
  // bits sit past the width and some wide steps pass too few words.
  // `eager` is settled and compared after every step; `lazy` is settled
  // only at the mid-stream reset, so its open waits are added when they
  // end.
  constexpr int kSteps = 3'000;
  for (const int width : {1, 8, 63, 64, 65, 200, 1024, 4096}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const auto n = static_cast<std::size_t>(width);
    const std::size_t words = (n + 63) / 64;
    obs::ArbiterMetrics ref_m, eager_m, lazy_m;
    ref_m.ports = eager_m.ports = lazy_m.ports = width;
    ReferenceProbe ref(&ref_m);
    obs::ArbiterProbe eager(&eager_m);
    obs::ArbiterProbe lazy(&lazy_m);
    Rng rng(derive_seed(0x0b5e, n));
    std::vector<std::uint64_t> req(words, 0);
    const auto flip = [&](std::size_t i) { req[i >> 6] ^= 1ull << (i & 63); };
    const auto has = [&](std::size_t i) {
      return ((req[i >> 6] >> (i & 63)) & 1) != 0;
    };
    // The first requesting port at or after a random start, or -1.
    const auto some_requester = [&]() {
      const std::size_t start = rng.next_below(n);
      for (std::size_t k = 0; k < n; ++k)
        if (has((start + k) % n)) return static_cast<int>((start + k) % n);
      return -1;
    };
    int grant = -1;
    for (int t = 0; t < kSteps; ++t) {
      const std::uint64_t flips = rng.next_below(5);
      for (std::uint64_t k = 0; k < flips; ++k) flip(rng.next_below(n));
      switch (rng.next_below(10)) {
        case 0:
        case 1:
          grant = some_requester();
          break;
        case 2:
          grant = -1;
          break;
        case 3:
          grant = static_cast<int>(rng.next_below(n));  // Req may be low
          break;
        case 4:
          // The holder releases: Req falls and the grant moves on in the
          // same step.
          if (grant >= 0 && has(static_cast<std::size_t>(grant)))
            flip(static_cast<std::size_t>(grant));
          grant = some_requester();
          break;
        case 5:
          // The holder drops Req but keeps the grant.
          if (grant >= 0 && has(static_cast<std::size_t>(grant)))
            flip(static_cast<std::size_t>(grant));
          break;
        default:
          break;  // the grant stays put
      }
      std::vector<std::uint64_t> sent = req;
      if (n % 64 != 0) sent.back() |= rng.next_u64() << (n % 64);  // dirty tail
      if (words > 1 && rng.next_below(50) == 0) sent.pop_back();
      ref.on_step(sent, grant);
      eager.on_step(sent, grant);
      lazy.on_step(sent, grant);
      if (t == kSteps / 3) {
        eager.settle();
        lazy.settle();
        reset_in_place(ref_m);
        reset_in_place(eager_m);
        reset_in_place(lazy_m);
      }
      eager.settle();
      ASSERT_TRUE(same_metrics(ref_m, eager_m)) << "after step " << t;
    }
    ref.finish();
    eager.finish();
    lazy.finish();
    ASSERT_TRUE(same_metrics(ref_m, eager_m)) << "after finish";
    ASSERT_TRUE(same_metrics(ref_m, lazy_m)) << "after finish";
    EXPECT_GT(ref_m.grant_latency.count(), 0u);
    EXPECT_GT(ref_m.grant_latency.max(), 0u);
  }
}

TEST(Histogram, RecordTimesEqualsRepeatedRecord) {
  Rng rng(0x7157);
  Histogram bulk, single;
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t v = rng.next_u64() >> rng.next_below(64);
    const std::uint64_t times = rng.next_below(40);  // 0 records nothing
    bulk.record(v, times);
    for (std::uint64_t k = 0; k < times; ++k) single.record(v);
    ASSERT_TRUE(same_histogram(single, bulk, "after a bulk record"))
        << "record " << i;
  }
  // The sum saturates exactly where that many single records pin it.
  Histogram big_bulk, big_single;
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max() / 3;
  big_bulk.record(big, 5);
  for (int k = 0; k < 5; ++k) big_single.record(big);
  EXPECT_TRUE(same_histogram(big_single, big_bulk, "saturated"));
  EXPECT_EQ(big_bulk.sum(), std::numeric_limits<std::uint64_t>::max());
}

TEST(ArbiterProbe, HeldStepsEqualRepeatedOnStep) {
  // The stream of the edge-driven probe test, with held stretches: after
  // a step whose holder keeps its Req up, `bulk` takes k steps at once
  // through held_steps while `stepped` sees the same step k more times.
  constexpr int kSteps = 2'000;
  for (const int width : {1, 8, 64, 65, 1024}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const auto n = static_cast<std::size_t>(width);
    const std::size_t words = (n + 63) / 64;
    obs::ArbiterMetrics stepped_m, bulk_m;
    stepped_m.ports = bulk_m.ports = width;
    obs::ArbiterProbe stepped(&stepped_m);
    obs::ArbiterProbe bulk(&bulk_m);
    Rng rng(derive_seed(0x401d, n));
    std::vector<std::uint64_t> req(words, 0);
    const auto has = [&](std::size_t i) {
      return ((req[i >> 6] >> (i & 63)) & 1) != 0;
    };
    int grant = -1;
    std::uint64_t held = 0;
    for (int t = 0; t < kSteps; ++t) {
      for (std::uint64_t k = rng.next_below(4); k > 0; --k) {
        const std::size_t i = rng.next_below(n);
        req[i >> 6] ^= 1ull << (i & 63);
      }
      if (grant < 0 || !has(static_cast<std::size_t>(grant)) ||
          rng.next_below(4) == 0) {
        // A new grant to a requester, or none.
        grant = -1;
        const std::size_t start = rng.next_below(n);
        for (std::size_t k = 0; k < n && grant < 0; ++k)
          if (has((start + k) % n)) grant = static_cast<int>((start + k) % n);
      }
      std::vector<std::uint64_t> sent = req;
      if (n % 64 != 0) sent.back() |= rng.next_u64() << (n % 64);
      stepped.on_step(sent, grant);
      bulk.on_step(sent, grant);
      if (grant >= 0 && rng.next_below(3) == 0) {
        const std::uint64_t k = 1 + rng.next_below(12);
        for (std::uint64_t j = 0; j < k; ++j) stepped.on_step(sent, grant);
        bulk.held_steps(k);
        held += k;
      }
      if (rng.next_below(200) == 0) {
        stepped.settle();
        bulk.settle();
        ASSERT_TRUE(same_metrics(stepped_m, bulk_m)) << "after step " << t;
      }
    }
    stepped.finish();
    bulk.finish();
    ASSERT_TRUE(same_metrics(stepped_m, bulk_m)) << "after finish";
    EXPECT_GT(held, 0u);
  }
}

// ------------------------------------------------------------- trace events

TEST(ObsTrace, ProtocolEventsAreRecorded) {
  TaskGraph g = contention_graph(2, 4);
  Binding b = single_bank_binding(g, 2);
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  TraceBuffer buf;
  SimOptions so;
  so.trace_sink = &buf;
  SystemSimulator sim(ins.graph, b, ins.plan, so);
  const SimResult r = sim.run({0, 1});
  EXPECT_GT(buf.size(), 0u);

  std::size_t starts = 0, finishes = 0, requests = 0, releases = 0,
              grants = 0, grant_ends = 0;
  std::uint64_t prev_cycle = 0;
  for (const TraceEvent& e : buf.events()) {
    EXPECT_GE(e.cycle, prev_cycle) << "trace must be cycle-ordered";
    prev_cycle = e.cycle;
    switch (e.kind) {
      case TraceKind::kTaskStart: ++starts; break;
      case TraceKind::kTaskFinish: ++finishes; break;
      case TraceKind::kRequest: ++requests; break;
      case TraceKind::kRelease: ++releases; break;
      case TraceKind::kGrant: ++grants; break;
      case TraceKind::kGrantEnd: ++grant_ends; break;
      default: break;
    }
  }
  EXPECT_EQ(starts, 2u);
  EXPECT_EQ(finishes, 2u);
  EXPECT_EQ(requests, r.tasks[0].acquires + r.tasks[1].acquires);
  EXPECT_EQ(requests, releases) << "every burst opens and closes";
  EXPECT_EQ(grants, r.arbiters[0].grants);
  // Every grant hand-off that happened has a matching end; at most the
  // final in-flight hold is unclosed.
  EXPECT_GE(grants, grant_ends);
  EXPECT_LE(grants - grant_ends, 1u);
}

TEST(ObsTrace, JsonlExportIsOneObjectPerLine) {
  TaskGraph g = contention_graph(2, 3);
  Binding b = single_bank_binding(g, 2);
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  TraceBuffer buf;
  SimOptions so;
  so.trace_sink = &buf;
  SystemSimulator sim(ins.graph, b, ins.plan, so);
  sim.run({0, 1});

  std::ostringstream os;
  obs::write_jsonl(os, buf.events(), sim.trace_meta());
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"cycle\":"), std::string::npos);
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos);
  }
  EXPECT_EQ(lines, buf.size());
  EXPECT_NE(os.str().find("\"task_name\":\"t0\""), std::string::npos);
  EXPECT_NE(os.str().find("\"arbiter_name\":\"BANK\""), std::string::npos);
}

TEST(ObsTrace, ChromeTraceExportIsBalancedJson) {
  TaskGraph g = contention_graph(2, 3);
  Binding b = single_bank_binding(g, 2);
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  TraceBuffer buf;
  SimOptions so;
  so.trace_sink = &buf;
  SystemSimulator sim(ins.graph, b, ins.plan, so);
  sim.run({0, 1});

  std::ostringstream os;
  obs::write_chrome_trace(os, buf.events(), sim.trace_meta());
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);  // metadata rows
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("run t0"), std::string::npos);
  EXPECT_NE(out.find("hold BANK"), std::string::npos);
  // Crude structural validity: braces and brackets balance, no trailing
  // comma before the closing bracket.
  std::ptrdiff_t braces = 0, brackets = 0;
  for (char ch : out) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(out.find(",]"), std::string::npos);
  EXPECT_EQ(out.find(",\n]"), std::string::npos);
}

TEST(ObsTrace, NoSinkMeansNoEmissionAndSameResult) {
  TaskGraph g = contention_graph(3, 6);
  Binding b = single_bank_binding(g, 3);
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  TraceBuffer buf;
  SimOptions with;
  with.trace_sink = &buf;
  SystemSimulator sim_with(ins.graph, b, ins.plan, with);
  SystemSimulator sim_without(ins.graph, b, ins.plan, {});
  const SimResult a = sim_with.run({0, 1, 2});
  const SimResult c = sim_without.run({0, 1, 2});
  EXPECT_GT(buf.size(), 0u);
  EXPECT_EQ(a.cycles, c.cycles) << "tracing must not perturb the simulation";
  EXPECT_EQ(a.arbiters[0].grants, c.arbiters[0].grants);
  EXPECT_EQ(a.tasks[2].finish_cycle, c.tasks[2].finish_cycle);
}

// -------------------------------------------------------------- determinism

TEST(ObsTrace, IdenticallySeededRunsProduceByteIdenticalStreams) {
  auto run_once = [](std::string* diag_stream, std::string* trace_stream) {
    TaskGraph g = contention_graph(3, 6);
    Binding b = single_bank_binding(g, 3);
    core::InsertionOptions io;
    io.retry_timeout = 6;
    const InsertionResult ins = core::insert_arbitration(g, b, io);
    fault::FaultTargets targets;
    targets.arbiter_ports = {3};
    targets.arbiter_state_bits = {6};
    fault::FaultPlanOptions fo;
    fo.seed = 11;
    fo.rate = 1e-3;
    TraceBuffer buf;
    SimOptions so;
    so.strict = false;
    so.seed = 42;
    so.watchdog_timeout = 16;
    so.faults = fault::plan_faults(targets, fo);
    so.trace_sink = &buf;
    SystemSimulator sim(ins.graph, b, ins.plan, so);
    const SimResult r = sim.run({0, 1, 2});
    std::string ds;
    for (const auto& d : r.diagnostics) ds += d.format() + "\n";
    *diag_stream = ds;
    std::ostringstream os;
    obs::write_jsonl(os, buf.events(), sim.trace_meta());
    *trace_stream = os.str();
  };
  std::string diag_a, trace_a, diag_b, trace_b;
  run_once(&diag_a, &trace_a);
  run_once(&diag_b, &trace_b);
  EXPECT_EQ(diag_a, diag_b);
  EXPECT_EQ(trace_a, trace_b);
}

TEST(ObsDiagnostics, DetailSuppressedKeepsKindsAndDropsStrings) {
  TaskGraph g = contention_graph(2, 4);
  Binding b = single_bank_binding(g, 2);
  // No plan: unarbitrated contention produces bank-conflict diagnostics.
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});
  SimOptions terse;
  terse.strict = false;
  terse.diag_detail = false;
  SystemSimulator sim_terse(g, b, plan, terse);
  SimOptions verbose;
  verbose.strict = false;
  SystemSimulator sim_verbose(g, b, plan, verbose);
  const SimResult t = sim_terse.run({0, 1});
  const SimResult v = sim_verbose.run({0, 1});
  ASSERT_GT(t.diagnostics.size(), 0u);
  ASSERT_EQ(t.diagnostics.size(), v.diagnostics.size());
  for (std::size_t i = 0; i < t.diagnostics.size(); ++i) {
    EXPECT_EQ(t.diagnostics[i].kind, v.diagnostics[i].kind);
    EXPECT_EQ(t.diagnostics[i].cycle, v.diagnostics[i].cycle);
    EXPECT_EQ(t.diagnostics[i].task, v.diagnostics[i].task);
    EXPECT_TRUE(t.diagnostics[i].detail.empty());
    EXPECT_FALSE(v.diagnostics[i].detail.empty());
  }
}

// ------------------------------------------------- degenerate arbiter sizes

TEST(ObsDegenerate, SingleAccessorIsElidedAndSimulatesClean) {
  // N=1: one task per bank — insertion must not build a 1-port arbiter
  // (core::Arbiter requires n >= 2); the access path stays unarbitrated.
  TaskGraph g{"n1"};
  g.add_segment("s0", 64, 16);
  Program p;
  p.load_imm(0, 0);
  for (int i = 0; i < 4; ++i) p.store(0, 0, 0, i);
  p.halt();
  g.add_task("solo", p, 1);
  Binding b = single_bank_binding(g, 1);
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  EXPECT_TRUE(ins.plan.arbiters.empty());
  SystemSimulator sim(ins.graph, b, ins.plan);
  const SimResult r = sim.run({0});
  EXPECT_EQ(r.protocol_violations, 0u);
  EXPECT_EQ(r.bank_conflicts, 0u);
  EXPECT_TRUE(r.arbiter_obs.empty());
  EXPECT_EQ(r.cycles, 5u);  // load_imm + 4 stores; halt drains for free
}

TEST(ObsDegenerate, TwoPortArbiterEndToEnd) {
  // N=2: the smallest real arbiter, through generator -> insertion ->
  // simulation.  The generator must synthesize it and the simulated pair
  // must interleave without conflicts, within the N-1 = 1 turn bound.
  const core::GeneratedArbiter gen = core::generate({.n = 2});
  EXPECT_EQ(gen.chars.n, 2);
  EXPECT_GT(gen.chars.clbs, 0u);

  TaskGraph g = contention_graph(2, 5);
  Binding b = single_bank_binding(g, 2);
  const InsertionResult ins = core::insert_arbitration(g, b, {});
  ASSERT_EQ(ins.plan.arbiters.size(), 1u);
  EXPECT_EQ(ins.plan.arbiters[0].ports.size(), 2u);
  SimOptions so;
  so.arbiter_metrics = true;
  SystemSimulator sim(ins.graph, b, ins.plan, so);
  const SimResult r = sim.run({0, 1});
  EXPECT_EQ(r.protocol_violations, 0u);
  EXPECT_EQ(r.bank_conflicts, 0u);
  ASSERT_EQ(r.arbiter_obs.size(), 1u);
  EXPECT_TRUE(r.arbiter_obs[0].within_n_minus_1_bound());
  EXPECT_LE(r.arbiter_obs[0].worst_turns_waited(), 1u);
}

// ------------------------------------------------------------ bench reports

TEST(ObsBenchReport, WritesSchemaTaggedJson) {
  obs::BenchReporter rep("unit_test");
  rep.metric("speedup", 1.5, "ratio");
  rep.metric("cycles", 1234, "cycles");
  rep.note("policy", "round-robin");
  const std::string path = rep.write(::testing::TempDir());
  ASSERT_FALSE(path.empty());
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string out = ss.str();
  EXPECT_NE(out.find("\"schema\": \"rcarb-bench-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"bench\": \"unit_test\""), std::string::npos);
  EXPECT_NE(out.find("\"speedup\""), std::string::npos);
  EXPECT_NE(out.find("\"unit\": \"ratio\""), std::string::npos);
  EXPECT_NE(out.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(out.find("\"commit\""), std::string::npos);
  EXPECT_NE(out.find("\"policy\": \"round-robin\""), std::string::npos);
  std::ptrdiff_t braces = 0;
  for (char ch : out) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
  }
  EXPECT_EQ(braces, 0);
}

TEST(ObsBenchReport, CreatesMissingDirectory) {
  // A merely-absent RCARB_BENCH_DIR target (the common CI case) is created
  // rather than reported as a failure — including nested components.
  const std::string dir =
      ::testing::TempDir() + "/rcarb_bench_missing/nested/deeper";
  obs::BenchReporter rep("mkdir_test");
  rep.metric("x", 1.0);
  const std::string path = rep.write(dir);
  ASSERT_EQ(path, dir + "/BENCH_mkdir_test.json");
  std::ifstream is(path);
  EXPECT_TRUE(is.good());
}

TEST(ObsBenchReport, UnwritableDirectoryFailsLoudly) {
  // A path that cannot be a directory (a component is a regular file) must
  // produce "" *and* a diagnostic naming the path — a silent empty report
  // would leave CI validating nothing.  (chmod-based probes are useless
  // here: tests may run as root.)
  const std::string file = ::testing::TempDir() + "/rcarb_not_a_dir";
  { std::ofstream(file) << "occupied"; }
  obs::BenchReporter rep("fail_test");
  rep.metric("x", 1.0);
  ::testing::internal::CaptureStderr();
  const std::string path = rep.write(file + "/sub");
  const std::string diag = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(path, "");
  EXPECT_NE(diag.find("BENCH_fail_test.json"), std::string::npos)
      << "diagnostic must name the report path: " << diag;
  EXPECT_NE(diag.find(file + "/sub"), std::string::npos)
      << "diagnostic must name the directory: " << diag;
}

TEST(ObsBenchReport, ConcurrentRecordingIsSafe) {
  // The merge path for parallel sweeps: N workers recording into one
  // reporter concurrently must lose nothing (order is schedule-dependent —
  // deterministic reports record from the ordered reducer instead).
  obs::BenchReporter rep("merge_test");
  constexpr int kWorkers = 8, kEach = 50;
  parallel_for_each(
      kWorkers,
      [&](std::size_t w) {
        for (int i = 0; i < kEach; ++i) {
          std::string key = "m";
          key += std::to_string(w);
          key += '_';
          key += std::to_string(i);
          rep.metric(key, static_cast<double>(i));
        }
      },
      kWorkers);
  const std::string path = rep.write(::testing::TempDir());
  ASSERT_FALSE(path.empty());
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string out = ss.str();
  for (int w = 0; w < kWorkers; ++w)
    for (int i = 0; i < kEach; ++i) {
      const std::string key =
          "\"m" + std::to_string(w) + "_" + std::to_string(i) + "\"";
      ASSERT_NE(out.find(key), std::string::npos) << key;
    }
}

}  // namespace
}  // namespace rcarb
