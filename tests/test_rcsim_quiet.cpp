// The quiet-stretch jump against its oracle, the per-cycle engine.
//
// A kCompute of n cycles spends each of them exactly as n kCompute(1) ops
// would, and a compute_left of 1 never opens a quiet stretch.  So running a
// graph as written (jumps) and with every compute unrolled into
// compute(1)s (one cycle at a time) must give the same run in every field
// but ops_retired, which counts the extra ops, and skipped_cycles.
//
// The oracle runs the same arbitration path on both sides, so it cannot
// check what the engine skips per lane.  RcsimCells pins, for a spread of
// systems, a fingerprint of every result field, the trace events and the
// final segment memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "board/board.hpp"
#include "core/arbiter_factory.hpp"
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
  for (const core::ArbiterKind kind :
       {core::ArbiterKind::kFlatFsm, core::ArbiterKind::kHierarchical,
        core::ArbiterKind::kPrefix}) {
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

// ------------------------------------------------------------ pinned cells

/// FNV-1a folded over 64-bit values, one byte at a time.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  void add(const std::string& text) {
    add(static_cast<std::uint64_t>(text.size()));
    for (const char ch : text) add(static_cast<std::uint64_t>(ch));
  }
  void add(const obs::Histogram& hist) {
    add(hist.count());
    add(hist.sum());
    add(hist.max());
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) add(hist.bucket(i));
    for (const double p : {0.1, 0.5, 0.9, 0.99}) add(hist.percentile(p));
  }
};

/// Runs folded into one fingerprint: every field expect_same_run compares,
/// each task's ops_retired, the diagnostics' detail text and quarantine
/// records, the trace events and the final segment memory.  Reads as
/// "cycles ops hash", the first two summed over the runs.
class Fingerprint {
 public:
  void add(const SimResult& r, const obs::TraceBuffer& trace,
           const SystemSimulator& sim, std::size_t segments) {
    cycles_ += r.cycles;
    for (const std::uint64_t v :
         {r.cycles, r.bank_conflicts, r.channel_conflicts,
          r.protocol_violations, r.clobbered_reads, r.illegal_fsm_states,
          r.fsm_recoveries, r.multi_grant_cycles, r.hung_grants,
          r.watchdog_releases, r.corrupted_words, r.corrected_words,
          r.retries, static_cast<std::uint64_t>(r.deadlocked),
          r.self_check_errors, r.self_check_resyncs, r.strikes,
          r.quarantined, r.remaps, r.drain_aborts, r.serving_cycles})
      h_.add(v);
    for (const TaskStats& s : r.tasks) {
      ops_ += s.ops_retired;
      for (const std::uint64_t v :
           {static_cast<std::uint64_t>(s.ran), s.start_cycle, s.finish_cycle,
            s.ops_retired, s.mem_accesses, s.channel_ops, s.grant_wait_cycles,
            s.backpressure_cycles, s.acquires})
        h_.add(v);
    }
    for (const ArbiterStats& s : r.arbiters) {
      h_.add(s.resource_name);
      h_.add(s.ports);
      h_.add(static_cast<int>(s.kind));
      for (const std::uint64_t v : {s.grants, s.granted_cycles, s.max_wait})
        h_.add(v);
    }
    for (const SimDiagnostic& d : r.diagnostics) {
      h_.add(static_cast<int>(d.kind));
      h_.add(d.cycle);
      h_.add(d.task);
      h_.add(d.resource);
      h_.add(d.detail);
    }
    for (const degrade::QuarantineRecord& q : r.quarantine_events) {
      h_.add(q.resource);
      h_.add(static_cast<int>(q.state));
      for (const std::uint64_t v :
           {q.classified_cycle, q.drained_cycle, q.restored_cycle})
        h_.add(v);
      h_.add(q.drain_aborted);
      h_.add(q.remap_target);
    }
    for (const obs::ArbiterMetrics& m : r.arbiter_obs) {
      h_.add(m.name);
      h_.add(m.kind);
      h_.add(m.ports);
      h_.add(m.grant_latency);
      h_.add(m.hold_length);
      h_.add(m.queue_depth);
      for (const obs::PortMetrics& p : m.port)
        for (const std::uint64_t v : {p.grants, p.granted_cycles,
                                      p.wait_cycles, p.max_wait,
                                      p.max_turns_waited})
          h_.add(v);
      for (const std::uint64_t v :
           {m.watchdog_fires, m.watchdog_releases, m.backoffs, m.retries,
            m.error_net_trips, m.resyncs})
        h_.add(v);
    }
    for (const std::vector<std::uint64_t>& words : r.request_trace) {
      h_.add(static_cast<std::uint64_t>(words.size()));
      for (const std::uint64_t w : words) h_.add(w);
    }
    for (const obs::TraceEvent& e : trace.events()) {
      h_.add(e.cycle);
      h_.add(static_cast<int>(e.kind));
      h_.add(e.task);
      h_.add(e.arbiter);
      h_.add(e.resource);
      h_.add(e.value);
    }
    for (tg::SegmentId s = 0; s < segments; ++s)
      for (const std::int64_t w : sim.segment_data(s)) h_.add(w);
  }

  [[nodiscard]] std::string str() const {
    return std::to_string(cycles_) + " " + std::to_string(ops_) + " " +
           std::to_string(h_.h);
  }

 private:
  std::uint64_t cycles_ = 0;
  std::uint64_t ops_ = 0;
  Fnv h_;
};

/// One system with every observer attached, run once and fingerprinted.
std::string fingerprint_run(const tg::TaskGraph& g, const core::Binding& b,
                            const core::ArbitrationPlan& plan,
                            SimOptions options,
                            const std::vector<TaskId>& tasks) {
  obs::TraceBuffer trace;
  options.trace_sink = &trace;
  options.arbiter_metrics = true;
  options.record_request_trace = true;
  SystemSimulator sim(g, b, plan, options);
  Fingerprint f;
  f.add(sim.run(tasks), trace, sim, g.num_segments());
  return f.str();
}

/// Four producers store bursts into their own segments on two banks and
/// send to two consumers over two merged physical channels; the consumers
/// store what they receive.  Bursts of four stores hold a grant while
/// peers wait, and compute gaps of different lengths leave some lanes idle
/// beside busy ones.
struct Mesh {
  tg::TaskGraph g{"mesh"};
  core::Binding binding;
  std::vector<TaskId> all;

  Mesh() {
    for (int s = 0; s < 6; ++s)
      g.add_segment(std::string("s").append(std::to_string(s)), 64, 32);
    std::vector<TaskId> producers;
    for (int p = 0; p < 4; ++p) {
      tg::Program prog;
      prog.load_imm(0, 0).load_imm(1, 7 * (p + 1));
      prog.loop_begin(5).compute(3 + 4 * p);
      for (int k = 0; k < 4; ++k) prog.store(p, 0, 1, k);
      prog.add_imm(0, 0, 4)
          .add_imm(1, 1, p + 1)
          .send(p, 1)
          .compute(2 + p)
          .loop_end()
          .halt();
      producers.push_back(
          g.add_task(std::string("p").append(std::to_string(p)), prog, 1));
    }
    for (int q = 0; q < 2; ++q) {
      tg::Program prog;
      prog.load_imm(0, 0);
      prog.loop_begin(5)
          .recv(2, 2 * q)
          .store(4 + q, 0, 2, 0)
          .recv(3, 2 * q + 1)
          .store(4 + q, 0, 3, 1)
          .add_imm(0, 0, 2)
          .loop_end()
          .halt();
      const TaskId c =
          g.add_task(std::string("q").append(std::to_string(q)), prog, 1);
      for (int k = 0; k < 2; ++k)
        g.add_channel(std::string("c").append(std::to_string(2 * q + k)), 32,
                      producers[static_cast<std::size_t>(2 * q + k)], c);
    }
    for (TaskId t = 0; t < g.num_tasks(); ++t) all.push_back(t);
    binding.task_to_pe = {0, 1, 2, 3, 4, 5};
    binding.segment_to_bank = {0, 0, 1, 1, 0, 1};
    binding.channel_to_phys = {0, 1, 0, 1};
    binding.num_banks = 2;
    binding.bank_names = {"B0", "B1"};
    binding.num_phys_channels = 2;
    binding.phys_channel_names = {"X0", "X1"};
  }

  [[nodiscard]] core::InsertionResult insert(
      core::ArbiterKind kind, int retry_timeout = 0) const {
    core::InsertionOptions io;
    io.batch_m = 4;
    io.arbiter_kind = kind;
    io.retry_timeout = retry_timeout;
    io.retry_backoff_limit = 8;
    return core::insert_arbitration(g, binding, io);
  }

  [[nodiscard]] std::string run(const core::InsertionResult& ins,
                                const SimOptions& options) const {
    return fingerprint_run(ins.graph, binding, ins.plan, options, all);
  }
};

/// A seeded plan of `kinds` against the arbiters of `ins` under `check`.
std::vector<fault::FaultEvent> mesh_faults(
    const core::InsertionResult& ins, core::CheckMode check,
    std::vector<fault::FaultKind> kinds, std::uint64_t seed, double rate) {
  fault::FaultTargets targets;
  for (const core::ArbiterInstance& inst : ins.plan.arbiters) {
    const int n = static_cast<int>(inst.ports.size());
    targets.arbiter_ports.push_back(n);
    targets.arbiter_state_bits.push_back(
        core::make_system_arbiter(n, {.kind = inst.kind, .self_check = check})
            .arbiter->num_state_bits());
  }
  targets.num_phys_channels = 2;
  targets.num_banks = 2;
  fault::FaultPlanOptions fo;
  fo.seed = seed;
  fo.horizon = 260;
  fo.rate = rate;
  fo.stuck_duration = 20;
  fo.kinds = std::move(kinds);
  return fault::plan_faults(targets, fo);
}

SimOptions lenient() {
  SimOptions so;
  so.strict = false;
  so.no_progress_window = 300;
  return so;
}

/// Two blocks through the three FFT partitions, segments carried, with the
/// probes, a trace sink and the request trace on: one fingerprint per
/// partition.
std::vector<std::string> fft_cells() {
  const FftPartitions fx;
  const std::size_t segments = fx.design.graph.num_segments();
  std::vector<std::unique_ptr<obs::TraceBuffer>> traces;
  std::vector<std::unique_ptr<SystemSimulator>> sims;
  for (const flow::PartitionReport& pr : fx.report.partitions) {
    traces.push_back(std::make_unique<obs::TraceBuffer>());
    sims.push_back(std::make_unique<SystemSimulator>(
        pr.rewritten, pr.binding, pr.plan,
        Twin::observed(SimOptions{}, true, traces.back().get())));
  }
  std::vector<Fingerprint> f(sims.size());
  Rng rng(39);
  for (int b = 0; b < 2; ++b) {
    fft::load_block(*sims[0], fx.design, random_block(rng));
    for (std::size_t p = 0; p < sims.size(); ++p) {
      if (p > 0)
        for (tg::SegmentId s = 0; s < segments; ++s)
          sims[p]->write_segment(s, sims[p - 1]->segment_data(s));
      traces[p]->clear();
      f[p].add(sims[p]->run(fx.tasks[p]), *traces[p], *sims[p], segments);
    }
  }
  std::vector<std::string> out;
  for (const Fingerprint& x : f) out.push_back(x.str());
  return out;
}

/// Upsets, req/grant stuck-at windows, channel corruption, latch-ups and
/// bank failures on the mesh, with the watchdog reporting.
std::string mesh_faults_cell(core::ArbiterKind kind, core::CheckMode check) {
  using fault::FaultKind;
  const Mesh fx;
  const core::InsertionResult ins = fx.insert(kind);
  SimOptions so = lenient();
  so.self_check = check;
  so.watchdog_timeout = 12;
  so.faults = mesh_faults(
      ins, check,
      {FaultKind::kFsmBitFlip, FaultKind::kFsmBitFlip, FaultKind::kReqStuck0,
       FaultKind::kReqStuck1, FaultKind::kGrantStuck0, FaultKind::kGrantDrop,
       FaultKind::kChannelCorrupt, FaultKind::kArbiterLatchup,
       FaultKind::kBankFailure},
      static_cast<std::uint64_t>(kind) * 3 +
          static_cast<std::uint64_t>(check) + 1,
      0.08);
  return fx.run(ins, so);
}

/// Hung grants the hardened watchdog force-releases.
std::string hardened_watchdog_cell() {
  using fault::FaultKind;
  const Mesh fx;
  const core::InsertionResult ins = fx.insert(core::ArbiterKind::kFlatFsm);
  SimOptions so = lenient();
  so.harden = true;
  so.watchdog_timeout = 6;
  so.faults = mesh_faults(
      ins, core::CheckMode::kNone,
      {FaultKind::kReqStuck1, FaultKind::kGrantStuck0, FaultKind::kFsmBitFlip},
      7, 0.05);
  return fx.run(ins, so);
}

/// A two-cycle retry timeout: waiters back off and re-assert.
std::string retry_backoff_cell() {
  const Mesh fx;
  return fx.run(fx.insert(core::ArbiterKind::kHierarchical, 2), lenient());
}

SimOptions degrading() {
  SimOptions so = lenient();
  so.degrade.enabled = true;
  so.degrade.strikes = 3;
  so.degrade.strike_window = 64;
  so.degrade.drain_timeout = 16;
  so.degrade.reconfig_base_cycles = 4;
  so.degrade.reconfig_cycles_per_clb = 0;
  return so;
}

/// Bank B1 and physical channel X0 die mid-run; the supervisor
/// quarantines, drains and remaps both.
std::string degradation_cell() {
  const Mesh fx;
  SimOptions so = degrading();
  fault::FaultEvent bank;
  bank.kind = fault::FaultKind::kBankFailure;
  bank.cycle = 30;
  bank.bank = 1;
  fault::FaultEvent channel;
  channel.kind = fault::FaultKind::kPermanentStuckChannel;
  channel.cycle = 45;
  channel.channel = 0;
  so.faults = {bank, channel};
  return fx.run(fx.insert(core::ArbiterKind::kPrefix), so);
}

/// Two producers share one physical channel by static time slots.
std::string tdm_cell() {
  tg::TaskGraph g("tdm");
  g.add_segment("out", 64, 16);
  for (int i = 0; i < 2; ++i) {
    tg::Program producer;
    producer.load_imm(0, 10 * (i + 1));
    producer.loop_begin(4).send(i, 0).add_imm(0, 0, 1).compute(2).loop_end();
    producer.halt();
    tg::Program consumer;
    consumer.load_imm(1, 8 * i);
    consumer.loop_begin(4).recv(2, i).store(0, 1, 2, 0).add_imm(1, 1, 1);
    consumer.loop_end().halt();
    const TaskId p =
        g.add_task(std::string("p").append(std::to_string(i)), producer, 1);
    const TaskId c =
        g.add_task(std::string("c").append(std::to_string(i)), consumer, 1);
    g.add_channel(std::string("ch").append(std::to_string(i)), 8, p, c);
  }
  core::Binding b;
  b.task_to_pe = {0, 1, 2, 3};
  b.segment_to_bank = {-1};
  b.channel_to_phys = {0, 0};
  b.num_phys_channels = 1;
  b.phys_channel_names = {"shared"};
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});
  SimOptions so = lenient();
  so.tdm_slots = {{0, 3}, {2, 3}};
  return fingerprint_run(g, b, plan, so, {0, 1, 2, 3});
}

/// Two transfers merged onto one physical channel clobber each other in
/// the one shared register.
std::string naive_register_cell() {
  tg::TaskGraph g("naive");
  g.add_segment("out", 64, 16);
  tg::Program t1;
  t1.load_imm(0, 10).send(0, 0).compute(4).load_imm(0, 11).send(0, 0).halt();
  tg::Program t4;
  t4.compute(3).load_imm(0, 102).send(1, 0).halt();
  tg::Program t2;
  t2.compute(9).recv(1, 0).load_imm(0, 0).store(0, 0, 1).recv(1, 0);
  t2.store(0, 0, 1, 1).halt();
  tg::Program t3;
  t3.compute(1).halt();
  const TaskId a = g.add_task("T1", t1, 1);
  const TaskId c = g.add_task("T2", t2, 1);
  const TaskId d = g.add_task("T3", t3, 1);
  const TaskId e = g.add_task("T4", t4, 1);
  g.add_channel("c1", 16, a, c);
  g.add_channel("c4", 16, e, d);
  core::Binding b;
  b.task_to_pe = {0, 1, 2, 3};
  b.segment_to_bank = {0};
  b.channel_to_phys = {0, 0};
  b.num_banks = 1;
  b.bank_names = {"BANK"};
  b.num_phys_channels = 1;
  b.phys_channel_names = {"c1_4"};
  const core::InsertionResult ins = core::insert_arbitration(g, b, {});
  SimOptions so = lenient();
  so.naive_shared_channel_register = true;
  return fingerprint_run(ins.graph, b, ins.plan, so, {a, c, d, e});
}

/// One client per bank, so insertion elides both tasks' protocol; after
/// bank 1 dies its client joins bank 0 with a retrofitted Req.
std::string elided_client_cell() {
  tg::TaskGraph g("elided");
  g.add_segment("s0", 64, 8);
  g.add_segment("s1", 64, 8);
  for (int t = 0; t < 2; ++t) {
    tg::Program w;
    w.load_imm(0, 0);
    for (int k = 0; k < 8; ++k)
      w.load_imm(1, 10 * (t + 1) + k).store(t, 0, 1, k).compute(1 + t);
    w.halt();
    g.add_task(std::string("t").append(std::to_string(t)), w, 1);
  }
  core::Binding b;
  b.task_to_pe = {0, 1};
  b.segment_to_bank = {0, 1};
  b.num_banks = 2;
  b.bank_names = {"B0", "B1"};
  const core::InsertionResult ins = core::insert_arbitration(g, b, {});
  SimOptions so = degrading();
  so.self_check = core::CheckMode::kTmr;
  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kBankFailure;
  dead.cycle = 6;
  dead.bank = 1;
  so.faults = {dead};
  return fingerprint_run(ins.graph, b, ins.plan, so, {0, 1});
}

/// Three bursts of 70 writers behind one prefix arbiter of two-word lanes,
/// with stuck-at windows on ports past the first word and in it.
std::string wide_writers_cell() {
  constexpr int kWriters = 70;
  tg::TaskGraph g("writers");
  for (int t = 0; t < kWriters; ++t)
    g.add_segment(std::string("s").append(std::to_string(t)), 64, 8);
  std::vector<TaskId> all;
  for (int t = 0; t < kWriters; ++t) {
    tg::Program p;
    p.load_imm(0, 0).load_imm(1, t);
    for (int i = 0; i < 3; ++i) p.store(t, 0, 1, i).compute(1 + (t + i) % 5);
    p.halt();
    all.push_back(
        g.add_task(std::string("t").append(std::to_string(t)), p, 1));
  }
  core::Binding b;
  b.task_to_pe.assign(kWriters, 0);
  b.segment_to_bank.assign(kWriters, 0);
  b.num_banks = 1;
  b.bank_names = {"BANK"};
  const core::InsertionResult ins = core::insert_arbitration(
      g, b, {.arbiter_kind = core::ArbiterKind::kPrefix});
  SimOptions so = lenient();
  so.no_progress_window = 2'000;
  for (const int port : {65, 69, 3}) {
    fault::FaultEvent e;
    e.kind = port == 3 ? fault::FaultKind::kGrantStuck0
                       : fault::FaultKind::kReqStuck1;
    e.cycle = 40 + static_cast<std::uint64_t>(port);
    e.arbiter = 0;
    e.port = port;
    e.duration = 25;
    so.faults.push_back(e);
  }
  return fingerprint_run(ins.graph, b, ins.plan, so, all);
}

/// Every pinned fingerprint, in kPinned order.
std::vector<std::string> pinned_cells() {
  std::vector<std::string> out = fft_cells();
  for (const core::ArbiterKind kind :
       {core::ArbiterKind::kFlatFsm, core::ArbiterKind::kHierarchical,
        core::ArbiterKind::kPrefix})
    for (const core::CheckMode check :
         {core::CheckMode::kNone, core::CheckMode::kDuplicate,
          core::CheckMode::kTmr})
      out.push_back(mesh_faults_cell(kind, check));
  for (const auto cell :
       {hardened_watchdog_cell, retry_backoff_cell, degradation_cell,
        tdm_cell, naive_register_cell, elided_client_cell, wide_writers_cell})
    out.push_back(cell());
  return out;
}

TEST(RcsimCells, FingerprintsArePinned) {
  // Cells the unrolling oracle cannot check: the FFT partitions, seeded
  // fault mixes at every kind and replication, the hardened watchdog,
  // retry backoff, online remaps, TDM slots, the naive shared register, an
  // elided sole client and a two-word lane.  The values were recorded from
  // the engine that stepped every arbiter and rebuilt every request line
  // on every stepped cycle.
  const std::vector<std::string> kPinned = {
      "1444 424 6105705049662248335",  // FFT TP0, two blocks
      "932 280 2761710527504096389",   // TP1
      "850 104 380559114192186702",    // TP2
      "160 360 6912268378350951312",   // mesh faults: flat none
      "459 304 13292917808245689995",  //   flat DMR
      "160 360 2158012328540915279",   //   flat TMR
      "379 168 37815681653784157",     //   hier none
      "382 137 446030577887903788",    //   hier DMR
      "446 155 15356322587561976531",  //   hier TMR
      "416 291 14529862029776732437",  //   prefix none
      "337 71 11258569501143128575",   //   prefix DMR
      "165 360 8089896647974183606",   //   prefix TMR
      "160 360 18290683119944872619",  // hardened watchdog
      "163 360 1905040115029085869",   // retry backoff
      "189 360 1799600741835039662",   // degradation remaps
      "25 52 96830986808758378",       // TDM slots
      "14 19 1082251066450909714",     // naive shared register
      "47 50 9341115106153127985",     // elided sole client
      "983 840 12020112187208606013",  // 70 writers
  };
  const std::vector<std::string> got = pinned_cells();
  ASSERT_EQ(got.size(), kPinned.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], kPinned[i]) << "cell " << i;
}

// ---------------------------------------------------------------- lane skip

/// Lane-steps a run stepped one by one: every lane on every cycle the
/// quiet jump did not skip.
std::uint64_t stepped_lane_steps(const SimResult& r) {
  return (r.cycles - r.skipped_cycles) * r.arbiters.size();
}

// On the FFT partitions most stepped lane-steps sit at a fixed point: an
// idle arbiter on all-zero words, or a grant held while its Req stays up.
TEST(LaneSkip, CoversMostFftLaneSteps) {
  const FftPartitions fx;
  const std::size_t segments = fx.design.graph.num_segments();
  std::vector<std::unique_ptr<SystemSimulator>> sims;
  for (const flow::PartitionReport& pr : fx.report.partitions)
    sims.push_back(
        std::make_unique<SystemSimulator>(pr.rewritten, pr.binding, pr.plan));
  Rng rng(39);
  std::uint64_t skipped = 0;
  std::uint64_t stepped = 0;
  for (int b = 0; b < 4; ++b) {
    const fft::Block block = random_block(rng);
    fft::load_block(*sims[0], fx.design, block);
    for (std::size_t p = 0; p < 3; ++p) {
      if (p > 0)
        for (tg::SegmentId s = 0; s < segments; ++s)
          sims[p]->write_segment(s, sims[p - 1]->segment_data(s));
      const SimResult r = sims[p]->run(fx.tasks[p]);
      EXPECT_LE(r.skipped_lane_steps, stepped_lane_steps(r));
      if (p < 2) {
        EXPECT_GT(r.skipped_lane_steps, 0u) << "TP" << p;
      }
      skipped += r.skipped_lane_steps;
      stepped += stepped_lane_steps(r);
    }
    EXPECT_EQ(fft::read_spectrum(*sims[2], fx.design), fft::fft2d_4x4(block));
  }
  EXPECT_GT(2 * skipped, stepped) << skipped << " of " << stepped;
}

// The supervisor's gating can change a lane's sample on any cycle, so it
// keeps the lane skip off.
TEST(LaneSkip, OffUnderTheDegradationSupervisor) {
  const Mesh fx;
  SimOptions so;
  so.degrade.enabled = true;
  const core::InsertionResult ins = fx.insert(core::ArbiterKind::kFlatFsm);
  SystemSimulator sim(ins.graph, fx.binding, ins.plan, so);
  const SimResult r = sim.run(fx.all);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.skipped_lane_steps, 0u);
}

// ------------------------------------------------------------------ reuse

/// Every SimResult field of two runs, the skip counters included.
void expect_same_result(const SimResult& a, const SimResult& b) {
  expect_same_run(a, b);
  for (std::size_t t = 0; t < a.tasks.size() && t < b.tasks.size(); ++t)
    EXPECT_EQ(a.tasks[t].ops_retired, b.tasks[t].ops_retired) << "task " << t;
  EXPECT_EQ(a.skipped_cycles, b.skipped_cycles);
  EXPECT_EQ(a.skipped_lane_steps, b.skipped_lane_steps);
  for (std::size_t i = 0; i < a.diagnostics.size() && i < b.diagnostics.size();
       ++i)
    EXPECT_EQ(a.diagnostics[i].detail, b.diagnostics[i].detail);
}

// The tables a simulator builds once serve every run: 64 blocks through
// one simulator per partition give what a fresh simulator per block gives.
TEST(RcsimReuse, BackToBackRunsMatchFreshSimulators) {
  const FftPartitions fx;
  const std::size_t segments = fx.design.graph.num_segments();
  const auto options = [] {
    SimOptions so;
    so.arbiter_metrics = true;
    so.record_request_trace = true;
    return so;
  };
  std::vector<std::unique_ptr<SystemSimulator>> reused;
  for (const flow::PartitionReport& pr : fx.report.partitions)
    reused.push_back(std::make_unique<SystemSimulator>(
        pr.rewritten, pr.binding, pr.plan, options()));
  Rng rng(64);
  for (int b = 0; b < 64; ++b) {
    SCOPED_TRACE("block " + std::to_string(b));
    const fft::Block block = random_block(rng);
    fft::load_block(*reused[0], fx.design, block);
    const SystemSimulator* prev_fresh = nullptr;
    std::vector<std::unique_ptr<SystemSimulator>> fresh;
    for (std::size_t p = 0; p < 3; ++p) {
      const flow::PartitionReport& pr = fx.report.partitions[p];
      fresh.push_back(std::make_unique<SystemSimulator>(
          pr.rewritten, pr.binding, pr.plan, options()));
      if (p == 0) fft::load_block(*fresh[0], fx.design, block);
      for (tg::SegmentId s = 0; p > 0 && s < segments; ++s) {
        reused[p]->write_segment(s, reused[p - 1]->segment_data(s));
        fresh[p]->write_segment(s, prev_fresh->segment_data(s));
      }
      expect_same_result(reused[p]->run(fx.tasks[p]),
                         fresh[p]->run(fx.tasks[p]));
      for (tg::SegmentId s = 0; s < segments; ++s)
        ASSERT_EQ(reused[p]->segment_data(s), fresh[p]->segment_data(s))
            << "TP" << p << " segment " << s;
      prev_fresh = fresh[p].get();
    }
  }

  // A run that remaps leaves the next run on the system as built: after
  // B1 fails and its load moves onto B0, a run that ends before the
  // failure equals that run on a fresh simulator.
  tg::TaskGraph g("reuse");
  for (int s = 0; s < 5; ++s)
    g.add_segment(std::string("s").append(std::to_string(s)), 64, 8);
  for (int t = 0; t < 5; ++t) {
    tg::Program p;
    p.load_imm(0, 0).load_imm(1, 10 * (t + 1));
    if (t == 4) p.compute(40);  // the slow writer reaches B1 after it fails
    for (int k = 0; k < 3; ++k) p.store(t, 0, 1, k).compute(1);
    p.halt();
    g.add_task(std::string("w").append(std::to_string(t)), p, 1);
  }
  core::Binding bind;
  bind.task_to_pe = {0, 1, 2, 3, 4};
  bind.segment_to_bank = {0, 0, 1, 1, 1};
  bind.num_banks = 2;
  bind.bank_names = {"B0", "B1"};
  const core::InsertionResult ins = core::insert_arbitration(g, bind, {});
  SimOptions so = degrading();
  so.arbiter_metrics = true;
  so.record_request_trace = true;
  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kBankFailure;
  dead.cycle = 30;
  dead.bank = 1;
  so.faults = {dead};
  SystemSimulator sim(ins.graph, bind, ins.plan, so);
  const SimResult remapped = sim.run({0, 1, 2, 3, 4});
  ASSERT_EQ(remapped.remaps, 1u);
  ASSERT_FALSE(remapped.deadlocked);
  for (tg::SegmentId s = 0; s < g.num_segments(); ++s)
    sim.write_segment(s, {});
  SystemSimulator clean(ins.graph, bind, ins.plan, so);
  const SimResult again = sim.run({0, 1, 2, 3});
  const SimResult want = clean.run({0, 1, 2, 3});
  EXPECT_EQ(want.remaps, 0u);
  EXPECT_LT(want.cycles, dead.cycle);
  expect_same_result(again, want);
  for (tg::SegmentId s = 0; s < g.num_segments(); ++s)
    EXPECT_EQ(sim.segment_data(s), clean.segment_data(s)) << "segment " << s;
}

}  // namespace
}  // namespace rcarb::rcsim
