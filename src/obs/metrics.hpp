// Per-arbiter observability counters and histograms.
//
// The paper's arbitration claims are quantitative — the N-1 worst-case wait
// bound (Sec. 4), the 2-cycle protocol overhead per burst (Fig. 8), and the
// fairness of the round-robin rotation — so the simulator must expose them
// as machine-readable numbers, not just pass/fail diagnostics.  ArbiterProbe
// implements the core::ArbiterObserver hook and derives wait, hold, queue
// depth and per-port fairness metrics from the raw request/grant wire
// stream; nothing here formats strings on the simulation hot path.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/policy.hpp"

namespace rcarb::obs {

/// HDR-style histogram of non-negative cycle counts: 65 power-of-two major
/// buckets (bucket 0 holds value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1]),
/// each subdivided into kSubBuckets linear sub-buckets.  The linear
/// subdivision bounds the quantization error of every percentile to
/// 1/kSubBuckets of the value (values below 2^kSubBits are exact) — the
/// pure pow-2 form answered p999 up to 2x high, which is useless for tail
/// latency SLOs.
class Histogram {
 public:
  // 65 major buckets cover the full uint64 domain (the old 33 silently
  // indexed out of bounds for values >= 2^32).
  static constexpr int kBuckets = 65;
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 16: <= 6.25% error

  /// Records `value` `times` times: the same histogram as that many
  /// single records, saturation included.
  void record(std::uint64_t value, std::uint64_t times = 1);

  /// Element-wise accumulation of `other` (per-worker service histograms
  /// are combined this way in parallel sweep reductions).  All counters use
  /// saturating arithmetic, so merging many full histograms pins at
  /// UINT64_MAX instead of wrapping.  Deterministic: merge order never
  /// changes any bucket, and max/percentiles are order-independent.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const;
  /// Total count of major bucket i (sum of its sub-buckets).
  [[nodiscard]] std::uint64_t bucket(int i) const;
  /// Inclusive value range covered by major bucket i.
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> bucket_range(
      int i);
  /// Upper bound of the *sub-bucket* holding the p-quantile (p in [0, 1],
  /// 0-based nearest rank), clamped to max() so it never exceeds any value
  /// actually recorded; p = 0.0 answers the minimum's sub-bucket, p = 1.0
  /// the maximum's.  NaN p clamps to 0.0.  An empty histogram returns 0 by
  /// definition.
  [[nodiscard]] std::uint64_t percentile(double p) const;
  /// "n=12 mean=3.4 max=9 p50<=4 p99<=16" (empty: "n=0").
  [[nodiscard]] std::string summarize() const;

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(kBuckets) * kSubBuckets>
      sub_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Fairness / wait accounting for one request port of one arbiter.
struct PortMetrics {
  std::uint64_t grants = 0;          // bursts granted to this port
  std::uint64_t granted_cycles = 0;  // cycles holding the grant (share)
  std::uint64_t wait_cycles = 0;     // cycles requesting without the grant
  std::uint64_t max_wait = 0;        // longest request-to-grant wait
  /// Most grants handed to *other* ports during one wait of this port.
  /// The paper's bound: a round-robin requester is served after at most
  /// N-1 other grants.
  std::uint64_t max_turns_waited = 0;
};

/// Counters and histograms for one arbiter instance.
struct ArbiterMetrics {
  std::string name;   // guarded resource
  std::string kind;   // arbiter structure label ("flat"/"hier"/"prefix");
                      // empty when the producer predates kind threading
  int ports = 0;

  Histogram grant_latency;  // request-to-grant, cycles
  Histogram hold_length;    // grant-to-release, cycles
  Histogram queue_depth;    // requesters pending at each grant hand-off

  std::vector<PortMetrics> port;  // size == ports

  // Protocol robustness events (filled by the simulator).
  std::uint64_t watchdog_fires = 0;     // hung-grant detections
  std::uint64_t watchdog_releases = 0;  // hardened force-releases
  std::uint64_t backoffs = 0;           // retry-timeout Req drops
  std::uint64_t retries = 0;            // Req re-assertions after backoff

  // Concurrent error detection (filled by the host of a self-checking
  // arbiter, core/selfcheck.hpp): steps on which the comparator fired,
  // and the resyncs that cleared them (DMR reset reloads / TMR minority
  // rewrites).  A trip count far above the resync count is the latch-up
  // signature — the error net is pinned high by a copy refusing resync.
  std::uint64_t error_net_trips = 0;
  std::uint64_t resyncs = 0;

  /// Jain fairness index over the per-port granted-cycle shares:
  /// 1.0 = perfectly even, 1/ports = one port monopolizes.  Ports that
  /// never requested are excluded; 1.0 when nothing was granted.
  [[nodiscard]] double fairness_jain() const;
  /// Worst max_turns_waited over all ports (paper bound: <= ports - 1).
  [[nodiscard]] std::uint64_t worst_turns_waited() const;
  /// True when every observed wait respected the N-1 grant-turn bound.
  [[nodiscard]] bool within_n_minus_1_bound() const;
  /// One-line human summary (flow reports, bench tables).
  [[nodiscard]] std::string summarize() const;
};

/// core::ArbiterObserver that feeds an ArbiterMetrics from the request /
/// grant stream.  Attach with Arbiter::set_observer; the probe borrows the
/// metrics object and must outlive the attachment.
///
/// A step costs O(words + changed request lines): the probe keeps the last
/// request words and visits only the lines that rose or fell, the old
/// holder and the new holder.  A wait (Req high, grant elsewhere) is kept
/// as the step it began on and is added to `wait_cycles` when it ends, so
/// between settle() calls `wait_cycles` lags the open waits.
class ArbiterProbe final : public core::ArbiterObserver {
 public:
  /// `metrics` must have `ports` set; `port` is resized here.
  explicit ArbiterProbe(ArbiterMetrics* metrics);

  void on_step(std::span<const std::uint64_t> requests, int grant) override;
  /// `steps` steps on all-zero requests with no grant, when no port
  /// requests and none holds: what that many on_step calls would record,
  /// which is only the step count.
  void idle_steps(std::uint64_t steps);
  /// `steps` steps that repeat the last one: the same request words and
  /// the same grant, to a holder that keeps its Req up.  What that many
  /// on_step calls would record: the hold and every open wait grow.
  void held_steps(std::uint64_t steps);

  /// Adds the cycles of the still-open waits to `wait_cycles`, so every
  /// metric is current.  Call before reading or resetting the metrics
  /// mid-stream; the probe's own state (waits, hold, turns) carries on.
  void settle();
  /// settle(), then flushes the in-flight hold interval (call once, after
  /// the last step).
  void finish();

 private:
  /// Port i's wait state went from `was` to `now` at step steps_.
  void wait_edge(std::size_t i, bool was, bool now);

  ArbiterMetrics* m_;
  int holder_ = -1;
  std::uint64_t hold_len_ = 0;
  std::uint64_t steps_ = 0;      // steps observed
  std::uint64_t settled_ = 0;    // wait_cycles counts every step before this
  std::uint64_t handoffs_ = 0;   // grants handed to a port so far
  std::uint64_t req_count_ = 0;  // popcount of req_
  std::vector<std::uint64_t> req_;   // last step's Req words, width-masked
  std::vector<std::uint64_t> diff_;  // scratch: Req lines that changed
  std::vector<std::uint64_t> wait_from_;  // per port: first step of its wait
  /// Per port: hand-offs to other ports during its earlier Req runs since
  /// its own last grant, and handoffs_ when its current Req run rose.
  std::vector<std::uint64_t> turns_;
  std::vector<std::uint64_t> turns_from_;
};

}  // namespace rcarb::obs
