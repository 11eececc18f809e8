#include "degrade/degrade.hpp"

#include <algorithm>

#include "core/generator.hpp"
#include "support/check.hpp"

namespace rcarb::degrade {

const char* to_string(StrikeSource s) {
  switch (s) {
    case StrikeSource::kSelfCheckError: return "self-check-error";
    case StrikeSource::kWatchdogTrip: return "watchdog-trip";
    case StrikeSource::kChannelFailure: return "channel-failure";
    case StrikeSource::kBankFailure: return "bank-failure";
  }
  return "?";
}

const char* to_string(QuarantineState s) {
  switch (s) {
    case QuarantineState::kHealthy: return "healthy";
    case QuarantineState::kDraining: return "draining";
    case QuarantineState::kReconfiguring: return "reconfiguring";
    case QuarantineState::kRemapped: return "remapped";
    case QuarantineState::kCapacityExhausted: return "capacity-exhausted";
  }
  return "?";
}

StrikeTracker::StrikeTracker(std::size_t num_resources, int strikes,
                             std::uint64_t window)
    : strikes_(strikes), window_(window), recent_(num_resources) {
  RCARB_CHECK(strikes >= 1, "strike threshold must be positive");
  RCARB_CHECK(window >= 1, "strike window must be positive");
}

bool StrikeTracker::strike(int resource, std::uint64_t cycle,
                           StrikeSource source) {
  RCARB_CHECK(resource >= 0 &&
                  static_cast<std::size_t>(resource) < recent_.size(),
              "strike resource out of range");
  ++total_;
  ++by_source_[static_cast<std::size_t>(source)];
  auto& v = recent_[static_cast<std::size_t>(resource)];
  // Expire strikes older than the sliding window (cycle - W, cycle].
  const std::uint64_t floor = cycle >= window_ ? cycle - window_ + 1 : 0;
  v.erase(v.begin(),
          std::lower_bound(v.begin(), v.end(), floor));
  v.push_back(cycle);
  return static_cast<int>(v.size()) >= strikes_;
}

void StrikeTracker::clear(int resource) {
  RCARB_CHECK(resource >= 0 &&
                  static_cast<std::size_t>(resource) < recent_.size(),
              "clear resource out of range");
  recent_[static_cast<std::size_t>(resource)].clear();
}

RepairPath repair_path_for(StrikeSource source) {
  switch (source) {
    case StrikeSource::kSelfCheckError:
    case StrikeSource::kWatchdogTrip:
      return RepairPath::kReconfigure;
    case StrikeSource::kChannelFailure:
    case StrikeSource::kBankFailure:
      return RepairPath::kRetire;
  }
  return RepairPath::kReconfigure;
}

ResourceSupervisor::ResourceSupervisor(int resources,
                                       const DegradeOptions& options)
    : opt_(options),
      tracker_(static_cast<std::size_t>(resources), options.strikes,
               options.strike_window),
      cells_(static_cast<std::size_t>(resources)) {
  RCARB_CHECK(resources >= 1, "supervisor needs at least one resource");
}

ResourceSupervisor::Transition ResourceSupervisor::strike(
    int resource, std::uint64_t cycle, StrikeSource source) {
  const bool kth = tracker_.strike(resource, cycle, source);
  Cell& cell = cells_[static_cast<std::size_t>(resource)];
  if (!opt_.enabled || !kth || cell.state != QuarantineState::kHealthy)
    return Transition::kNone;
  cell = Cell{};
  cell.state = QuarantineState::kDraining;
  cell.path = repair_path_for(source);
  cell.deadline = cycle + opt_.drain_timeout;
  cell.record = records_.size();
  QuarantineRecord rec;
  rec.resource = resource;
  rec.state = QuarantineState::kDraining;
  rec.classified_cycle = cycle;
  records_.push_back(rec);
  return Transition::kQuarantined;
}

ResourceSupervisor::Transition ResourceSupervisor::advance(
    int resource, std::uint64_t cycle, bool drained, int ports,
    core::CheckMode mode, const RetirePlan* plan) {
  Cell& cell = cells_[static_cast<std::size_t>(resource)];
  switch (cell.state) {
    case QuarantineState::kDraining: {
      if (!drained) {
        if (cycle < cell.deadline) return Transition::kNone;
        cell.overdue = true;
        return Transition::kDrainOverdue;
      }
      QuarantineRecord& rec = records_[cell.record];
      rec.drain_aborted = cell.overdue;
      rec.drained_cycle = cycle;
      if (plan != nullptr) {
        cell.path = RepairPath::kRetire;
        cell.target = plan->target;
        if (!plan->feasible) {
          rec.state = cell.state = QuarantineState::kCapacityExhausted;
          return Transition::kRetired;
        }
      }
      rec.state = cell.state = QuarantineState::kReconfiguring;
      cell.deadline = cycle + arbiter_reconfig_cycles(opt_, ports, mode);
      return Transition::kDrained;
    }
    case QuarantineState::kReconfiguring: {
      if (cycle < cell.deadline) return Transition::kNone;
      QuarantineRecord& rec = records_[cell.record];
      rec.restored_cycle = cycle;
      if (cell.path == RepairPath::kReconfigure) {
        // The arbiter region was rewritten; the resource re-enters service
        // with a clean strike history.
        rec.state = cell.state = QuarantineState::kHealthy;
        tracker_.clear(resource);
        return Transition::kRestored;
      }
      // Retire: the load stays failed over, onto the plan's target or else
      // the lowest-index healthy survivor as the representative target
      // (the service routes uniformly over every survivor).
      for (std::size_t i = 0; i < cells_.size() && cell.target < 0; ++i) {
        if (static_cast<int>(i) == resource) continue;
        if (cells_[i].state == QuarantineState::kHealthy)
          cell.target = static_cast<int>(i);
      }
      rec.remap_target = cell.target;
      rec.state = cell.state = cell.target >= 0
                                   ? QuarantineState::kRemapped
                                   : QuarantineState::kCapacityExhausted;
      return Transition::kRetired;
    }
    case QuarantineState::kHealthy:
    case QuarantineState::kRemapped:
    case QuarantineState::kCapacityExhausted:
      return Transition::kNone;
  }
  return Transition::kNone;
}

QuarantineState ResourceSupervisor::state(int resource) const {
  return cells_[static_cast<std::size_t>(resource)].state;
}

const QuarantineRecord& ResourceSupervisor::record(int resource) const {
  return records_[cells_[static_cast<std::size_t>(resource)].record];
}

BankRemapPlan plan_bank_remap(const std::vector<std::size_t>& segment_bytes,
                              const std::vector<int>& bank_of_segment,
                              const std::vector<std::size_t>& bank_free_bytes,
                              int dead_bank,
                              const std::vector<bool>& failed) {
  RCARB_CHECK(segment_bytes.size() == bank_of_segment.size(),
              "segment tables disagree");
  RCARB_CHECK(dead_bank >= 0 &&
                  static_cast<std::size_t>(dead_bank) < bank_free_bytes.size(),
              "dead bank out of range");
  BankRemapPlan plan;
  plan.dead_bank = dead_bank;
  for (std::size_t s = 0; s < bank_of_segment.size(); ++s) {
    if (bank_of_segment[s] != dead_bank) continue;
    plan.moved_segments.push_back(static_cast<int>(s));
    plan.moved_bytes += segment_bytes[s];
  }
  if (plan.moved_segments.empty()) {
    // Nothing lived on the dead bank; retiring it is free.
    plan.feasible = true;
    return plan;
  }
  // Tightest-fitting survivor (then lowest index) — best-fit keeps the
  // large-free banks available for later quarantines.
  for (std::size_t b = 0; b < bank_free_bytes.size(); ++b) {
    if (static_cast<int>(b) == dead_bank) continue;
    if (b < failed.size() && failed[b]) continue;
    if (bank_free_bytes[b] < plan.moved_bytes) continue;
    if (plan.target_bank < 0 ||
        bank_free_bytes[b] <
            bank_free_bytes[static_cast<std::size_t>(plan.target_bank)])
      plan.target_bank = static_cast<int>(b);
  }
  plan.feasible = plan.target_bank >= 0;
  return plan;
}

ChannelRemapPlan plan_channel_remap(const std::vector<int>& channel_to_phys,
                                    std::size_t num_phys, int dead_phys,
                                    const std::vector<bool>& failed) {
  RCARB_CHECK(dead_phys >= 0 &&
                  static_cast<std::size_t>(dead_phys) < num_phys,
              "dead phys channel out of range");
  ChannelRemapPlan plan;
  plan.dead_phys = dead_phys;
  std::vector<std::size_t> load(num_phys, 0);
  for (std::size_t c = 0; c < channel_to_phys.size(); ++c) {
    if (channel_to_phys[c] < 0) continue;
    ++load[static_cast<std::size_t>(channel_to_phys[c])];
    if (channel_to_phys[c] == dead_phys)
      plan.moved_channels.push_back(static_cast<int>(c));
  }
  if (plan.moved_channels.empty()) {
    plan.feasible = true;
    return plan;
  }
  for (std::size_t p = 0; p < num_phys; ++p) {
    if (static_cast<int>(p) == dead_phys) continue;
    if (p < failed.size() && failed[p]) continue;
    if (plan.target_phys < 0 ||
        load[p] < load[static_cast<std::size_t>(plan.target_phys)])
      plan.target_phys = static_cast<int>(p);
  }
  plan.feasible = plan.target_phys >= 0;
  return plan;
}

std::uint64_t reconfig_cycles(const DegradeOptions& options,
                              std::size_t clbs) {
  return options.reconfig_base_cycles +
         options.reconfig_cycles_per_clb * static_cast<std::uint64_t>(clbs);
}

std::uint64_t arbiter_reconfig_cycles(const DegradeOptions& options, int n,
                                      core::CheckMode mode,
                                      synth::Encoding encoding) {
  if (n < 2) return reconfig_cycles(options, 0);
  // Priced off a characterized grid of flat encoded netlists that stops at
  // 20 (plain), 16 (DMR) and 10 (TMR) ports.  Larger contention sets are
  // priced at the widest characterized arbiter of the mode.  The caps
  // bound the characterization cost and keep the modelled prices where
  // they were; no register width limits them.
  const int cap = mode == core::CheckMode::kNone        ? 20
                  : mode == core::CheckMode::kDuplicate ? 16
                                                        : 10;
  const int capped = std::min(n, cap);
  const std::size_t clbs =
      core::generate_cached(
          {.n = capped, .check = mode, .encoding = encoding})
          .chars.clbs;
  return reconfig_cycles(options, clbs);
}

}  // namespace rcarb::degrade
