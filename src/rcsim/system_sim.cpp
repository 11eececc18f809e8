#include "rcsim/system_sim.hpp"

#include <algorithm>
#include <utility>

#include "rcsim/run_state.hpp"
#include "support/check.hpp"

namespace rcarb::rcsim {

using tg::TaskId;

std::size_t SimResult::count(DiagKind k) const {
  std::size_t n = 0;
  for (const SimDiagnostic& d : diagnostics)
    if (d.kind == k) ++n;
  return n;
}

SystemSimulator::SystemSimulator(tg::TaskGraph graph, core::Binding binding,
                                 core::ArbitrationPlan plan,
                                 SimOptions options)
    : graph_(std::move(graph)),
      binding_(std::move(binding)),
      plan_(std::move(plan)),
      options_(options) {
  graph_.validate();
  memory_.resize(graph_.num_segments());
  for (tg::SegmentId s = 0; s < graph_.num_segments(); ++s)
    memory_[s].assign(graph_.segment(s).words, 0);
}

void SystemSimulator::write_segment(tg::SegmentId s,
                                    const std::vector<std::int64_t>& words) {
  RCARB_CHECK(s < memory_.size(), "segment out of range");
  RCARB_CHECK(words.size() <= graph_.segment(s).words,
              "segment preload larger than the segment");
  memory_[s].assign(graph_.segment(s).words, 0);
  std::copy(words.begin(), words.end(), memory_[s].begin());
}

const std::vector<std::int64_t>& SystemSimulator::segment_data(
    tg::SegmentId s) const {
  RCARB_CHECK(s < memory_.size(), "segment out of range");
  return memory_[s];
}

obs::TraceMeta SystemSimulator::trace_meta() const {
  obs::TraceMeta m;
  m.task_names.reserve(graph_.num_tasks());
  for (TaskId t = 0; t < graph_.num_tasks(); ++t)
    m.task_names.push_back(graph_.task(t).name);
  m.arbiter_names.reserve(plan_.arbiters.size() +
                          regenerated_arbiters_.size());
  for (const core::ArbiterInstance& a : plan_.arbiters)
    m.arbiter_names.push_back(a.resource_name);
  m.arbiter_names.insert(m.arbiter_names.end(), regenerated_arbiters_.begin(),
                         regenerated_arbiters_.end());
  const int n_res = static_cast<int>(binding_.num_resources());
  m.resource_names.reserve(static_cast<std::size_t>(n_res));
  for (int r = 0; r < n_res; ++r)
    m.resource_names.push_back(binding_.resource_name(r));
  return m;
}

namespace detail {

namespace {

/// Splits SimOptions::faults by application point, dropping events that
/// target an arbiter, port, channel or bank this system does not have.
FaultSchedule split_faults(const std::vector<fault::FaultEvent>& events,
                           const std::vector<ArbiterStats>& arbiters,
                           const core::Binding& binding) {
  FaultSchedule f;
  f.stucks.resize(arbiters.size());
  f.chan_corrupt.resize(binding.num_phys_channels);
  const auto in = [](int i, std::size_t n) {
    return i >= 0 && static_cast<std::size_t>(i) < n;
  };
  const auto arbiter_ok = [&](int a) { return in(a, arbiters.size()); };
  for (const fault::FaultEvent& e : events) {
    switch (e.kind) {
      case fault::FaultKind::kFsmBitFlip:
        if (arbiter_ok(e.arbiter)) f.flips.push_back(e);
        break;
      case fault::FaultKind::kReqStuck0:
      case fault::FaultKind::kReqStuck1:
      case fault::FaultKind::kGrantStuck0:
      case fault::FaultKind::kGrantDrop:
        if (arbiter_ok(e.arbiter) && e.port >= 0 &&
            e.port < arbiters[static_cast<std::size_t>(e.arbiter)].ports)
          f.stucks[static_cast<std::size_t>(e.arbiter)].windows.push_back(e);
        break;
      case fault::FaultKind::kChannelCorrupt:
        if (in(e.channel, binding.num_phys_channels))
          f.chan_corrupt[static_cast<std::size_t>(e.channel)].push_back(
              {e.cycle, e.xor_mask});
        break;
      case fault::FaultKind::kPermanentStuckChannel:
        if (in(e.channel, binding.num_phys_channels))
          f.perm_res.push_back({e.cycle, binding.channel_resource(e.channel)});
        break;
      case fault::FaultKind::kBankFailure:
        if (in(e.bank, binding.num_banks))
          f.perm_res.push_back({e.cycle, binding.bank_resource(e.bank)});
        break;
      case fault::FaultKind::kArbiterLatchup:
        if (arbiter_ok(e.arbiter))
          f.latchups.push_back({e.cycle, static_cast<std::size_t>(e.arbiter)});
        break;
    }
  }
  const auto by_cycle = [](const fault::FaultEvent& a,
                           const fault::FaultEvent& b) {
    return a.cycle < b.cycle;
  };
  std::stable_sort(f.flips.begin(), f.flips.end(), by_cycle);
  for (StuckWindows& s : f.stucks)
    std::stable_sort(s.windows.begin(), s.windows.end(), by_cycle);
  for (auto& q : f.chan_corrupt) std::stable_sort(q.rbegin(), q.rend());
  std::stable_sort(f.perm_res.begin(), f.perm_res.end());
  std::stable_sort(f.latchups.begin(), f.latchups.end());
  return f;
}

/// The run's own copy of a borrowed table, made on its first write.
template <class T>
T& copy_on_write(std::unique_ptr<T>& own, const T*& view) {
  if (own == nullptr) {
    own = std::make_unique<T>(*view);
    view = own.get();
  }
  return *own;
}

}  // namespace

RunState::RunState(const tg::TaskGraph& g, const core::Binding& b,
                   const core::ArbitrationPlan& p, const SimOptions& options,
                   std::vector<std::vector<std::int64_t>>& mem,
                   const std::vector<TaskId>& run_tasks)
    : graph(g),
      opt(options),
      memory(mem),
      tasks(run_tasks),
      binding_(&b),
      plan_(&p),
      sink(options.trace_sink),
      want_detail(options.diag_detail || options.strict),
      ctx(g.num_tasks()),
      chan_reg(g.num_channels()),
      naive_reg(b.num_phys_channels),
      bank_user(b.num_banks),
      chan_user(b.num_phys_channels),
      degrade_on(options.degrade.enabled),
      num_res(static_cast<int>(b.num_resources())),
      res_failed(b.num_resources(), 0) {
  // arbiter_obs is reserved once, before any probe borrows an element, so
  // the probes' pointers stay valid for the whole run; the reserve leaves
  // room for the arbiters the supervisor regenerates (at most one per
  // quarantined resource).
  if (opt.arbiter_metrics)
    result.arbiter_obs.reserve(p.arbiters.size() + b.num_resources());
  port_index.resize(b.num_resources());
  for (const core::ArbiterInstance& inst : p.arbiters) add_lane(inst);
  faults = split_faults(opt.faults, result.arbiters, b);
  for (TaskId t = 0; t < g.num_tasks(); ++t) ctx[t].id = t;
  for (TaskId t : tasks) {
    RCARB_CHECK(t < g.num_tasks(), "task out of range");
    ctx[t].in_run = true;
  }
  if (degrade_on && num_res > 0) {
    sup = degrade::ResourceSupervisor(num_res, opt.degrade);
    moves.resize(static_cast<std::size_t>(num_res));
  }
}

void RunState::add_lane(const core::ArbiterInstance& inst) {
  const int n = static_cast<int>(inst.ports.size());
  core::SystemArbiterSpec spec;
  spec.policy = inst.policy;
  spec.kind = inst.kind;  // the structure the flow priced
  spec.harden = opt.harden;
  spec.self_check = opt.self_check;
  spec.seed = opt.seed;
  const int a = static_cast<int>(lanes.size());
  if (inst.resource >= 0 && inst.resource < num_res) {
    auto& row = port_index[static_cast<std::size_t>(inst.resource)];
    row.resize(graph.num_tasks(), {-1, -1});
    for (int port = 0; port < n; ++port) {
      auto& entry = row[inst.ports[static_cast<std::size_t>(port)]];
      if (entry.first < 0) entry = {a, port};
    }
  }
  ArbiterLane& lane = lanes.emplace_back();
  static_cast<core::SystemArbiter&>(lane) = core::make_system_arbiter(n, spec);
  const auto words = static_cast<std::size_t>((n + 63) / 64);
  for (std::vector<std::uint64_t>* line :
       {&lane.requests, &lane.pending, &lane.grant_mask_vis,
        &lane.force_release, &lane.eff})
    line->assign(words, 0);
  result.arbiters.push_back({inst.resource_name, n, lane.kind});
  if (opt.arbiter_metrics) {
    obs::ArbiterMetrics& m = result.arbiter_obs.emplace_back();
    m.name = inst.resource_name;
    m.kind = core::to_string(lane.kind);
    m.ports = n;
    lane.probe = std::make_unique<obs::ArbiterProbe>(&m);
    lane.arbiter->set_observer(lane.probe.get());
  }
  if (opt.record_request_trace) result.request_trace.emplace_back();
}

core::Binding& RunState::mutable_binding() {
  return copy_on_write(own_binding, binding_);
}

core::ArbitrationPlan& RunState::mutable_plan() {
  return copy_on_write(own_plan, plan_);
}

SimResult RunState::finish() {
  result.cycles = cycle;
  for (const TaskCtx& c : ctx) result.tasks.push_back(c.stats);
  for (ArbiterLane& lane : lanes) {
    if (lane.probe == nullptr) continue;
    lane.probe->finish();
    lane.arbiter->set_observer(nullptr);
  }
  // The supervisor's records are the quarantine accounting.
  result.quarantine_events = sup.records();
  result.strikes = sup.strikes().total();
  result.quarantined = sup.records().size();
  for (const degrade::QuarantineRecord& rec : sup.records()) {
    if (rec.drain_aborted) ++result.drain_aborts;
    if (rec.state == degrade::QuarantineState::kRemapped) ++result.remaps;
  }
  return std::move(result);
}

}  // namespace detail

}  // namespace rcarb::rcsim
