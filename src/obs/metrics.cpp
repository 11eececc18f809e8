#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

#include "support/check.hpp"

namespace rcarb::obs {

namespace {

/// Major bucket index of `value`: 0 -> 0, otherwise 1 + floor(log2(value)).
int bucket_of(std::uint64_t value) {
  if (value == 0) return 0;
  return 1 + (63 - std::countl_zero(value));
}

/// Linear sub-bucket of `value` within major bucket m >= 1.  Major bucket m
/// spans 2^(m-1) values starting at 2^(m-1); spans wider than kSubBuckets
/// are divided into kSubBuckets equal linear slices.
int sub_of(std::uint64_t value, int m) {
  if (m == 0) return 0;
  const std::uint64_t lo = 1ull << (m - 1);
  if (m - 1 <= Histogram::kSubBits)
    return static_cast<int>(value - lo);  // span <= kSubBuckets: exact
  return static_cast<int>((value - lo) >> (m - 1 - Histogram::kSubBits));
}

/// Inclusive upper bound of sub-bucket s of major bucket m.
std::uint64_t sub_upper(int m, int s) {
  if (m == 0) return 0;
  const std::uint64_t lo = 1ull << (m - 1);
  if (m - 1 <= Histogram::kSubBits) return lo + static_cast<std::uint64_t>(s);
  const int shift = m - 1 - Histogram::kSubBits;
  return lo + (static_cast<std::uint64_t>(s + 1) << shift) - 1;
}

/// a + b pinned at UINT64_MAX instead of wrapping (merge of many
/// already-huge histograms must not make counts smaller).
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? std::numeric_limits<std::uint64_t>::max() : s;
}

}  // namespace

void Histogram::record(std::uint64_t value, std::uint64_t times) {
  if (times == 0) return;
  const int m = bucket_of(value);
  auto& cell = sub_[static_cast<std::size_t>(m) * kSubBuckets +
                    static_cast<std::size_t>(sub_of(value, m))];
  cell = sat_add(cell, times);
  count_ = sat_add(count_, times);
  // value * times, pinned at UINT64_MAX like `times` sat_adds of value.
  const std::uint64_t total =
      value != 0 && times > std::numeric_limits<std::uint64_t>::max() / value
          ? std::numeric_limits<std::uint64_t>::max()
          : value * times;
  sum_ = sat_add(sum_, total);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < sub_.size(); ++i)
    sub_[i] = sat_add(sub_[i], other.sub_[i]);
  count_ = sat_add(count_, other.count_);
  sum_ = sat_add(sum_, other.sum_);
  max_ = std::max(max_, other.max_);
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::bucket(int i) const {
  std::uint64_t total = 0;
  for (int s = 0; s < kSubBuckets; ++s)
    total = sat_add(total, sub_[static_cast<std::size_t>(i) * kSubBuckets +
                                static_cast<std::size_t>(s)]);
  return total;
}

std::pair<std::uint64_t, std::uint64_t> Histogram::bucket_range(int i) {
  if (i == 0) return {0, 0};
  const std::uint64_t lo = 1ull << (i - 1);
  return {lo, lo * 2 - 1};
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;  // documented: empty histogram reports 0
  // Not std::clamp: the negated comparison also lands NaN on 0.0 instead
  // of flowing it into the rank cast (which would be UB).
  if (!(p >= 0.0)) p = 0.0;
  if (p > 1.0) p = 1.0;
  // 0-based nearest rank.  p = 0.0 targets rank 0 (the minimum's
  // sub-bucket), p = 1.0 targets rank count-1 (the maximum's): `seen >
  // target` fires on the first sub-bucket whose cumulative count covers
  // the rank, so a histogram with every sample in one sub-bucket answers
  // that sub-bucket for every p.
  const auto target = static_cast<std::uint64_t>(
      p * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int m = 0; m < kBuckets; ++m) {
    for (int s = 0; s < kSubBuckets; ++s) {
      seen += sub_[static_cast<std::size_t>(m) * kSubBuckets +
                   static_cast<std::size_t>(s)];
      // The sub-bucket upper bound can overshoot the largest value actually
      // recorded; clamping keeps percentile() <= max() so p100 is exact.
      if (seen > target) return std::min(sub_upper(m, s), max_);
    }
  }
  return max_;
}

std::string Histogram::summarize() const {
  if (count_ == 0) return "n=0";
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "n=%llu mean=%.2f max=%llu p50<=%llu p99<=%llu",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<unsigned long long>(max_),
                static_cast<unsigned long long>(percentile(0.50)),
                static_cast<unsigned long long>(percentile(0.99)));
  return buf;
}

double ArbiterMetrics::fairness_jain() const {
  double sum = 0.0;
  double sum_sq = 0.0;
  int active = 0;
  for (const auto& p : port) {
    if (p.grants == 0 && p.wait_cycles == 0) continue;  // never requested
    const auto share = static_cast<double>(p.granted_cycles);
    sum += share;
    sum_sq += share * share;
    ++active;
  }
  if (active == 0 || sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(active) * sum_sq);
}

std::uint64_t ArbiterMetrics::worst_turns_waited() const {
  std::uint64_t worst = 0;
  for (const auto& p : port) worst = std::max(worst, p.max_turns_waited);
  return worst;
}

bool ArbiterMetrics::within_n_minus_1_bound() const {
  return worst_turns_waited() + 1 <= static_cast<std::uint64_t>(ports);
}

std::string ArbiterMetrics::summarize() const {
  const std::string label = kind.empty() ? name : name + "/" + kind;
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%s[%d]: latency{%s} hold{%s} jain=%.3f turns<=%llu%s wd=%llu "
      "backoff=%llu err=%llu resync=%llu",
      label.c_str(), ports, grant_latency.summarize().c_str(),
      hold_length.summarize().c_str(), fairness_jain(),
      static_cast<unsigned long long>(worst_turns_waited()),
      within_n_minus_1_bound() ? "" : "(!)",
      static_cast<unsigned long long>(watchdog_fires),
      static_cast<unsigned long long>(backoffs),
      static_cast<unsigned long long>(error_net_trips),
      static_cast<unsigned long long>(resyncs));
  return buf;
}

ArbiterProbe::ArbiterProbe(ArbiterMetrics* metrics) : m_(metrics) {
  const auto n = static_cast<std::size_t>(m_->ports);
  m_->port.assign(n, PortMetrics{});
  req_.assign((n + 63) / 64, 0);
  diff_.assign(req_.size(), 0);
  wait_from_.assign(n, 0);
  turns_.assign(n, 0);
  turns_from_.assign(n, 0);
}

void ArbiterProbe::on_step(std::span<const std::uint64_t> words, int grant) {
  const auto ports = static_cast<std::size_t>(m_->ports);
  // Req edges, masked to the width (bits past `ports` in the last word are
  // the producer's to leave dirty; missing words read as 0).  A rising
  // line stamps the hand-off count; a falling line banks the hand-offs its
  // run saw as turns.
  for (std::size_t w = 0; w < req_.size(); ++w) {
    std::uint64_t cur = w < words.size() ? words[w] : 0;
    if (w + 1 == req_.size() && (ports & 63) != 0)
      cur &= (1ull << (ports & 63)) - 1;
    const std::uint64_t d = cur ^ req_[w];
    diff_[w] = d;
    if (d == 0) continue;
    req_count_ += static_cast<std::uint64_t>(std::popcount(cur));
    req_count_ -= static_cast<std::uint64_t>(std::popcount(req_[w]));
    req_[w] = cur;
  }
  core::for_each_bit(diff_, [&](std::size_t i) {
    if (core::test_bit(req_, i))
      turns_from_[i] = handoffs_;
    else
      turns_[i] += handoffs_ - turns_from_[i];
  });

  // Hold tracking: close the previous interval on any hand-off.
  const int old = holder_;
  if (grant != holder_) {
    if (holder_ >= 0) {
      m_->hold_length.record(hold_len_);
      m_->port[static_cast<std::size_t>(holder_)].granted_cycles += hold_len_;
    }
    if (grant >= 0) {
      const auto g = static_cast<std::size_t>(grant);
      const bool now = core::test_bit(req_, g);
      const bool was = now != core::test_bit(diff_, g);
      PortMetrics& pm = m_->port[g];
      pm.grants += 1;
      const std::uint64_t wait = was ? steps_ - wait_from_[g] : 0;
      m_->grant_latency.record(wait);
      pm.max_wait = std::max(pm.max_wait, wait);
      const std::uint64_t turns =
          turns_[g] + (now ? handoffs_ - turns_from_[g] : 0);
      pm.max_turns_waited = std::max(pm.max_turns_waited, turns);
      // This hand-off is g's own: its turns count from the next one.
      turns_[g] = 0;
      turns_from_[g] = handoffs_ + 1;
      ++handoffs_;
      m_->queue_depth.record(req_count_);  // requesters pending at hand-off
    }
    holder_ = grant;
    hold_len_ = 0;
  }
  if (holder_ >= 0) hold_len_ += 1;

  // Waits: a port waits while its Req is high and another port holds the
  // grant.  Only changed lines and the two holders can start or end one.
  core::for_each_bit(diff_, [&](std::size_t i) {
    const bool now = core::test_bit(req_, i);
    wait_edge(i, !now && static_cast<int>(i) != old,
              now && static_cast<int>(i) != holder_);
  });
  if (old != holder_) {
    for (const int h : {old, holder_}) {
      if (h < 0) continue;
      const auto i = static_cast<std::size_t>(h);
      if (core::test_bit(diff_, i)) continue;  // done above
      const bool r = core::test_bit(req_, i);
      wait_edge(i, r && h != old, r && h != holder_);
    }
  }
  ++steps_;
}

void ArbiterProbe::idle_steps(std::uint64_t steps) {
  RCARB_ASSERT(holder_ < 0 && req_count_ == 0,
               "idle steps need no holder and no request");
  steps_ += steps;
}

void ArbiterProbe::held_steps(std::uint64_t steps) {
  RCARB_ASSERT(holder_ >= 0 && core::test_bit(req_, holder_),
               "held steps need a holder that requests");
  hold_len_ += steps;
  steps_ += steps;
}

void ArbiterProbe::wait_edge(std::size_t i, bool was, bool now) {
  if (was == now) return;
  if (now)
    wait_from_[i] = steps_;
  else
    m_->port[i].wait_cycles += steps_ - std::max(wait_from_[i], settled_);
}

void ArbiterProbe::settle() {
  for (std::size_t w = 0; w < req_.size(); ++w) {
    std::uint64_t waiting = req_[w];
    if (holder_ >= 0 && static_cast<std::size_t>(holder_ >> 6) == w)
      waiting &= ~(1ull << (holder_ & 63));
    for (; waiting != 0; waiting &= waiting - 1) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(waiting));
      m_->port[i].wait_cycles += steps_ - std::max(wait_from_[i], settled_);
    }
  }
  settled_ = steps_;
}

void ArbiterProbe::finish() {
  settle();
  if (holder_ >= 0) {
    m_->hold_length.record(hold_len_);
    m_->port[static_cast<std::size_t>(holder_)].granted_cycles += hold_len_;
  }
  holder_ = -1;
  hold_len_ = 0;
}

}  // namespace rcarb::obs
