// The quiet-stretch jump against its oracle, the per-cycle engine.
//
// A kCompute of n cycles spends each of them exactly as n kCompute(1) ops
// would, and a compute_left of 1 never opens a quiet stretch.  So running a
// graph as written (jumps) and with every compute unrolled into
// compute(1)s (one cycle at a time) must give the same run in every field
// but ops_retired, which counts the extra ops, and skipped_cycles.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "board/board.hpp"
#include "core/insertion.hpp"
#include "fault/fault.hpp"
#include "fft/fft_design.hpp"
#include "fft/reference.hpp"
#include "flow/sparcs_flow.hpp"
#include "obs/trace.hpp"
#include "rcsim/system_sim.hpp"
#include "support/rng.hpp"

namespace rcarb::rcsim {
namespace {

using tg::TaskId;

/// `g` with every kCompute of n > 1 cycles replaced by n kCompute(1) ops.
tg::TaskGraph unroll_computes(tg::TaskGraph g) {
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    tg::Program p;
    for (const tg::Op& op : g.task(t).program.ops()) {
      if (op.code != tg::OpCode::kCompute || op.imm <= 1) {
        p.append(op);
        continue;
      }
      tg::Op one = op;
      one.imm = 1;
      for (std::int64_t k = 0; k < op.imm; ++k) p.append(one);
    }
    g.task(t).program = p;
  }
  return g;
}

void expect_same_histogram(const obs::Histogram& a, const obs::Histogram& b) {
  EXPECT_EQ(std::make_tuple(a.count(), a.sum(), a.max()),
            std::make_tuple(b.count(), b.sum(), b.max()));
  for (int i = 0; i < obs::Histogram::kBuckets; ++i)
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
  for (const double p : {0.1, 0.5, 0.9, 0.99})
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
}

/// Every field of two runs but TaskStats::ops_retired and skipped_cycles.
void expect_same_run(const SimResult& a, const SimResult& b) {
  const auto counters = [](const SimResult& r) {
    return std::tie(r.cycles, r.bank_conflicts, r.channel_conflicts,
                    r.protocol_violations, r.clobbered_reads,
                    r.illegal_fsm_states, r.fsm_recoveries,
                    r.multi_grant_cycles, r.hung_grants, r.watchdog_releases,
                    r.corrupted_words, r.corrected_words, r.retries,
                    r.deadlocked, r.self_check_errors, r.self_check_resyncs,
                    r.strikes, r.quarantined, r.remaps, r.drain_aborts,
                    r.serving_cycles);
  };
  EXPECT_EQ(counters(a), counters(b));

  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  const auto task = [](const TaskStats& s) {
    return std::tie(s.ran, s.start_cycle, s.finish_cycle, s.mem_accesses,
                    s.channel_ops, s.grant_wait_cycles, s.backpressure_cycles,
                    s.acquires);
  };
  for (std::size_t t = 0; t < a.tasks.size(); ++t)
    EXPECT_EQ(task(a.tasks[t]), task(b.tasks[t])) << "task " << t;

  ASSERT_EQ(a.arbiters.size(), b.arbiters.size());
  const auto arbiter = [](const ArbiterStats& s) {
    return std::tie(s.resource_name, s.ports, s.kind, s.grants,
                    s.granted_cycles, s.max_wait);
  };
  for (std::size_t i = 0; i < a.arbiters.size(); ++i)
    EXPECT_EQ(arbiter(a.arbiters[i]), arbiter(b.arbiters[i]))
        << "arbiter " << i;

  // Not the detail text: a no-progress dump prints program counters, which
  // the unrolling moves.
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  const auto diag = [](const SimDiagnostic& d) {
    return std::tie(d.kind, d.cycle, d.task, d.resource);
  };
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i)
    EXPECT_EQ(diag(a.diagnostics[i]), diag(b.diagnostics[i]))
        << "diagnostic " << i;
  EXPECT_EQ(a.quarantine_events.size(), b.quarantine_events.size());

  ASSERT_EQ(a.arbiter_obs.size(), b.arbiter_obs.size());
  for (std::size_t i = 0; i < a.arbiter_obs.size(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    const obs::ArbiterMetrics& x = a.arbiter_obs[i];
    const obs::ArbiterMetrics& y = b.arbiter_obs[i];
    expect_same_histogram(x.grant_latency, y.grant_latency);
    expect_same_histogram(x.hold_length, y.hold_length);
    expect_same_histogram(x.queue_depth, y.queue_depth);
    const auto events = [](const obs::ArbiterMetrics& m) {
      return std::tie(m.name, m.kind, m.ports, m.watchdog_fires,
                      m.watchdog_releases, m.backoffs, m.retries,
                      m.error_net_trips, m.resyncs);
    };
    EXPECT_EQ(events(x), events(y));
    ASSERT_EQ(x.port.size(), y.port.size());
    const auto port = [](const obs::PortMetrics& p) {
      return std::tie(p.grants, p.granted_cycles, p.wait_cycles, p.max_wait,
                      p.max_turns_waited);
    };
    for (std::size_t p = 0; p < x.port.size(); ++p)
      EXPECT_EQ(port(x.port[p]), port(y.port[p])) << "port " << p;
  }
  EXPECT_EQ(a.request_trace, b.request_trace);
}

/// One system simulated both ways, by default with every observer
/// attached: a trace sink, the metric probes and the request trace.
struct Twin {
  obs::TraceBuffer written_trace, unrolled_trace;
  SystemSimulator written, unrolled;

  Twin(const tg::TaskGraph& g, const core::Binding& b,
       const core::ArbitrationPlan& plan, const SimOptions& options,
       bool observe = true)
      : written(g, b, plan, observed(options, observe, &written_trace)),
        unrolled(unroll_computes(g), b, plan,
                 observed(options, observe, &unrolled_trace)) {}

  static SimOptions observed(SimOptions o, bool observe,
                             obs::TraceSink* sink) {
    if (observe) {
      o.trace_sink = sink;
      o.arbiter_metrics = true;
      o.record_request_trace = true;
    }
    return o;
  }

  /// Runs both and checks they agree; returns the jumping run.
  SimResult run(const std::vector<TaskId>& tasks, std::size_t segments) {
    written_trace.clear();
    unrolled_trace.clear();
    SimResult a = written.run(tasks);
    const SimResult b = unrolled.run(tasks);
    expect_same_run(a, b);
    EXPECT_EQ(b.skipped_cycles, 0u);
    EXPECT_EQ(written_trace.events(), unrolled_trace.events());
    for (tg::SegmentId s = 0; s < segments; ++s)
      EXPECT_EQ(written.segment_data(s), unrolled.segment_data(s))
          << "segment " << s;
    return a;
  }
};

/// The paper's Sec. 5 partitions through the pinned flow, as the image
/// workload runs them.
struct FftPartitions {
  fft::FftDesign design = fft::build_fft_design();
  std::vector<std::vector<TaskId>> tasks = fft::paper_partitions(design);
  flow::FlowReport report;

  FftPartitions() {
    flow::FlowOptions options;
    options.pinned_partitions = &tasks;
    options.pinned_binding = [this](std::size_t tp) {
      return fft::paper_binding(design, tp);
    };
    report = flow::run_flow(design.graph, board::wildforce(), options);
  }
};

fft::Block random_block(Rng& rng) {
  fft::Block block{};
  for (auto& row : block)
    for (auto& v : row) v = rng.next_in(0, 255);
  return block;
}

// Two image blocks through TP0 -> TP1 -> TP2, segments carried between
// partitions, with and without the observers.  The jump must fire on every
// partition and cover most of each block.
TEST(QuietJump, FftPartitionsMatchThePerCycleEngine) {
  const FftPartitions fx;
  ASSERT_EQ(fx.report.partitions.size(), 3u);
  const std::size_t segments = fx.design.graph.num_segments();
  for (const bool observe : {false, true}) {
    std::vector<std::unique_ptr<Twin>> tp;
    for (const flow::PartitionReport& pr : fx.report.partitions)
      tp.push_back(std::make_unique<Twin>(pr.rewritten, pr.binding, pr.plan,
                                          SimOptions{}, observe));
    Rng rng(36);
    for (int b = 0; b < 2; ++b) {
      const fft::Block block = random_block(rng);
      fft::load_block(tp[0]->written, fx.design, block);
      fft::load_block(tp[0]->unrolled, fx.design, block);
      std::uint64_t cycles = 0;
      std::uint64_t skipped = 0;
      for (std::size_t p = 0; p < 3; ++p) {
        SCOPED_TRACE("block " + std::to_string(b) + " TP" + std::to_string(p));
        if (p > 0)
          for (tg::SegmentId s = 0; s < segments; ++s) {
            tp[p]->written.write_segment(s, tp[p - 1]->written.segment_data(s));
            tp[p]->unrolled.write_segment(
                s, tp[p - 1]->unrolled.segment_data(s));
          }
        const SimResult r = tp[p]->run(fx.tasks[p], segments);
        EXPECT_GT(r.skipped_cycles, 0u) << "the jump never fired";
        cycles += r.cycles;
        skipped += r.skipped_cycles;
      }
      EXPECT_EQ(cycles, 1613u);
      EXPECT_GT(2 * skipped, cycles) << "skipped " << skipped;
      EXPECT_EQ(fft::read_spectrum(tp[2]->written, fx.design),
                fft::fft2d_4x4(block));
    }
  }
}

// A max_cycles that falls inside a compute stretch stops both runs at the
// same cycle with the same diagnostic.
TEST(QuietJump, MaxCyclesInsideAStretch) {
  const FftPartitions fx;
  const flow::PartitionReport& pr = fx.report.partitions[2];
  int inside = 0;
  for (std::uint64_t limit = 5; limit < 425; limit += 20) {
    SCOPED_TRACE("max_cycles " + std::to_string(limit));
    SimOptions options;
    options.strict = false;
    options.max_cycles = limit;
    Twin twin(pr.rewritten, pr.binding, pr.plan, options);
    const SimResult r =
        twin.run(fx.tasks[2], fx.design.graph.num_segments());
    EXPECT_EQ(r.cycles, limit);
    ASSERT_FALSE(r.diagnostics.empty());
    EXPECT_EQ(r.diagnostics.back().kind, DiagKind::kMaxCycles);
    if (r.skipped_cycles > 0) ++inside;
  }
  EXPECT_GT(inside, 10);
}

/// Three tasks whose long computes overlap, with short bursts on one
/// shared bank and on one physical channel merging two logical channels.
struct ComputeHeavy {
  tg::TaskGraph g{"compute_heavy"};
  core::Binding binding;

  ComputeHeavy() {
    g.add_segment("s0", 64, 16);
    g.add_segment("s1", 64, 16);
    tg::Program t0;
    t0.load_imm(0, 0).load_imm(1, 5);
    t0.loop_begin(6)
        .compute(53)
        .store(0, 0, 1, 0)
        .add_imm(1, 1, 1)
        .send(0, 1)
        .compute(19)
        .loop_end()
        .halt();
    tg::Program t1;
    t1.load_imm(0, 0).load_imm(1, 9);
    t1.loop_begin(6)
        .compute(41)
        .store(1, 0, 1, 1)
        .send(1, 1)
        .compute(29)
        .loop_end()
        .halt();
    tg::Program t2;
    t2.load_imm(0, 0);
    t2.loop_begin(6)
        .recv(2, 0)
        .compute(45)
        .store(0, 0, 2, 2)
        .recv(3, 1)
        .compute(33)
        .store(1, 0, 3, 3)
        .loop_end()
        .halt();
    const TaskId a = g.add_task("t0", t0, 1);
    const TaskId b = g.add_task("t1", t1, 1);
    const TaskId c = g.add_task("t2", t2, 1);
    g.add_channel("c0", 32, a, c);
    g.add_channel("c1", 32, b, c);
    binding.task_to_pe = {0, 1, 2};
    binding.segment_to_bank = {0, 0};
    binding.channel_to_phys = {0, 0};
    binding.num_banks = 1;
    binding.num_phys_channels = 1;
    binding.bank_names = {"BANK"};
    binding.phys_channel_names = {"CH"};
  }
};

// Seeded fault plans over the run's span, dense enough that events land
// inside compute stretches: upsets alone, stuck-at windows alone, every
// transient kind mixed, and a few permanent faults, across the arbiter
// kinds, replication and hardening.
TEST(QuietJump, SeededFaultsMatchThePerCycleEngine) {
  using fault::FaultKind;
  struct Plan {
    std::vector<FaultKind> kinds;  // empty: every transient kind
    double rate;
  };
  const std::vector<Plan> plans = {
      {{FaultKind::kFsmBitFlip}, 0.02},
      {{FaultKind::kReqStuck0, FaultKind::kReqStuck1, FaultKind::kGrantStuck0,
        FaultKind::kGrantDrop},
       0.02},
      {{}, 0.02},
      // A few, so the run goes on around them.
      {fault::permanent_fault_kinds(), 0.004},
  };
  const ComputeHeavy fx;
  const std::vector<TaskId> all = {0, 1, 2};
  std::uint64_t fault_free_skipped = 0;
  int cells = 0;
  for (const core::ArbiterChoice kind :
       {core::ArbiterChoice::kFlatFsm, core::ArbiterChoice::kHierarchical,
        core::ArbiterChoice::kPrefix}) {
    core::InsertionOptions io;
    io.arbiter_kind = kind;
    io.retry_timeout = 12;
    const core::InsertionResult ins =
        core::insert_arbitration(fx.g, fx.binding, io);
    fault::FaultTargets targets;
    for (const core::ArbiterInstance& inst : ins.plan.arbiters) {
      targets.arbiter_ports.push_back(static_cast<int>(inst.ports.size()));
      targets.arbiter_state_bits.push_back(
          2 * static_cast<int>(inst.ports.size()));
    }
    targets.num_phys_channels = 1;
    targets.num_banks = 1;
    for (const core::CheckMode check :
         {core::CheckMode::kNone, core::CheckMode::kDuplicate,
          core::CheckMode::kTmr}) {
      for (const bool harden : {false, true}) {
        // Plan 0 is the fault-free run.
        for (std::size_t plan = 0; plan <= plans.size(); ++plan) {
          for (std::uint64_t seed = 1; seed <= (plan == 0 ? 1u : 2u); ++seed) {
            SCOPED_TRACE(std::string(core::to_string(kind)) + " " +
                         core::to_string(check) +
                         (harden ? " hardened" : "") + " plan " +
                         std::to_string(plan) + " seed " +
                         std::to_string(seed));
            SimOptions so;
            so.strict = false;
            so.harden = harden;
            so.self_check = check;
            so.watchdog_timeout = 24;
            so.no_progress_window = 600;
            if (plan > 0) {
              fault::FaultPlanOptions fo;
              fo.seed = seed;
              fo.horizon = 700;
              fo.rate = plans[plan - 1].rate;
              fo.stuck_duration = 30;
              fo.kinds = plans[plan - 1].kinds;
              so.faults = fault::plan_faults(targets, fo);
            }
            Twin twin(ins.graph, fx.binding, ins.plan, so);
            const SimResult r = twin.run(all, fx.g.num_segments());
            if (plan == 0) fault_free_skipped += r.skipped_cycles;
            ++cells;
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 3 * 3 * 2 * 9);
  EXPECT_GT(fault_free_skipped, 0u);
}

// The degradation supervisor's timers run every cycle, so it keeps the
// jump off.
TEST(QuietJump, OffUnderTheDegradationSupervisor) {
  const ComputeHeavy fx;
  const core::InsertionResult ins =
      core::insert_arbitration(fx.g, fx.binding, {});
  SimOptions so;
  so.degrade.enabled = true;
  Twin twin(ins.graph, fx.binding, ins.plan, so);
  EXPECT_EQ(twin.run({0, 1, 2}, fx.g.num_segments()).skipped_cycles, 0u);
}

}  // namespace
}  // namespace rcarb::rcsim
