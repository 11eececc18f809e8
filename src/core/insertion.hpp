// Automatic arbiter insertion (paper Secs. 2, 4.3, 5).
//
// Input: a taskgraph plus a resource Binding (tasks->PEs, logical segments->
// physical banks, logical channels->physical channels) produced by the
// partitioners.  Output: a rewritten taskgraph whose programs follow the
// Fig. 8 protocol (acquire / accesses / release, re-requesting every M
// accesses) and an ArbitrationPlan listing the arbiter instances and the
// shared-line merges.
//
// The Sec. 5 optimization is implemented as elision: tasks that are
// serialized by control dependencies against every other accessor of a
// resource are excluded from that resource's arbiter — they only need safe
// line defaults.  If serialization covers all accessors, no arbiter is
// inserted at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/arbiter_factory.hpp"
#include "core/line_merge.hpp"
#include "core/policy.hpp"
#include "support/check.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::core {

/// Where everything lives physically.  Produced by src/partition.
struct Binding {
  std::vector<int> task_to_pe;       // per TaskId
  std::vector<int> segment_to_bank;  // per SegmentId; -1 = unmapped
  std::vector<int> channel_to_phys;  // per ChannelId; -1 = direct/intra-PE
  std::size_t num_banks = 0;
  std::size_t num_phys_channels = 0;
  std::vector<std::string> bank_names;          // size num_banks
  std::vector<std::string> phys_channel_names;  // size num_phys_channels

  /// Unified shared-resource ids: banks first, then physical channels.
  [[nodiscard]] int bank_resource(int bank) const { return bank; }
  [[nodiscard]] int channel_resource(int phys) const {
    return static_cast<int>(num_banks) + phys;
  }
  [[nodiscard]] std::size_t num_resources() const {
    return num_banks + num_phys_channels;
  }
  /// Arbitrated resource an op drives, or -1.  Receives do not drive the
  /// shared wires (the receiver register is local to the destination task).
  [[nodiscard]] int driven_resource(const tg::Op& op) const {
    switch (op.code) {
      case tg::OpCode::kLoad:
      case tg::OpCode::kStore: {
        const auto seg = static_cast<std::size_t>(op.b);
        RCARB_CHECK(seg < segment_to_bank.size(),
                    "op references segment outside the binding");
        const int bank = segment_to_bank[seg];
        return bank < 0 ? -1 : bank_resource(bank);
      }
      case tg::OpCode::kSend: {
        const auto ch = static_cast<std::size_t>(op.b);
        RCARB_CHECK(ch < channel_to_phys.size(),
                    "op references channel outside the binding");
        const int phys = channel_to_phys[ch];
        return phys < 0 ? -1 : channel_resource(phys);
      }
      default:
        return -1;
    }
  }
  [[nodiscard]] bool resource_is_bank(int resource) const {
    return resource >= 0 && resource < static_cast<int>(num_banks);
  }
  [[nodiscard]] const std::string& resource_name(int resource) const;
};

/// One arbiter instance guarding one physical resource.
struct ArbiterInstance {
  int resource = -1;
  std::string resource_name;
  std::vector<tg::TaskId> ports;  // request-line order
  Policy policy = Policy::kRoundRobin;
  /// Round-robin structure, resolved at insertion time (never kAuto) so
  /// the simulator instantiates — and the synthesis flow characterizes —
  /// the matching AIG generator.
  ArbiterKind kind = ArbiterKind::kFlatFsm;

  /// Request index of a task, or -1 if the task has no port.
  [[nodiscard]] int port_of(tg::TaskId t) const;
};

struct InsertionOptions {
  /// Fig. 8's M: a task re-requests after this many consecutive accesses so
  /// no peer waits unboundedly.
  int batch_m = 2;
  /// Sec. 5 optimization: tasks serialized by control dependences never
  /// contend, so a resource's accessors split into concurrency components
  /// — one (smaller) arbiter per component, none for singletons.  Off by
  /// default: the paper's main flow "assumed all tasks execute in
  /// parallel" and inserted one arbiter over all accessors.
  bool elide_serialized = false;
  Policy policy = Policy::kRoundRobin;
  /// Protocol-level retry (robustness extension of Fig. 8): a task whose
  /// Req sees no Grant within this many cycles deasserts Req and re-asserts
  /// after a bounded exponential backoff, instead of waiting forever on a
  /// possibly-stuck line.  0 keeps the paper's wait-forever protocol.
  int retry_timeout = 0;
  /// Backoff cap in cycles (backoff doubles per consecutive retry of the
  /// same burst, starting at 1, and never exceeds this).
  int retry_backoff_limit = 64;
  /// Round-robin arbiter structure recorded on every instance.  kAuto
  /// resolves per instance from its port count and
  /// arbiter_fmax_budget_mhz (required > 0) via the pre-characterized
  /// area/fmax cache.
  ArbiterChoice arbiter_kind = ArbiterChoice::kFlatFsm;
  int arbiter_arity = 4;  // tree arity for kHierarchical
  double arbiter_fmax_budget_mhz = 0.0;
};

struct InsertionStats {
  std::size_t arbiters = 0;
  std::size_t arbiter_ports = 0;
  std::size_t elided_resources = 0;  // shared but fully serialized
  std::size_t elided_ports = 0;      // accessors excluded by serialization
  std::size_t wrapped_bursts = 0;    // acquire/release pairs inserted
  std::size_t modified_tasks = 0;
};

/// The complete arbitration plan for one binding.  A resource may carry
/// several arbiters after elision (one per concurrency component).
struct ArbitrationPlan {
  std::vector<ArbiterInstance> arbiters;
  std::vector<LineMergePlan> line_merges;
  std::vector<std::vector<int>> arbiters_of_resource;  // per resource id
  InsertionStats stats;
  /// Retry protocol parameters every rewritten task obeys (from
  /// InsertionOptions; the simulator enforces them).  0 = wait forever.
  int retry_timeout = 0;
  int retry_backoff_limit = 64;

  /// The arbiter index and request-port of task `t` on `resource`, or
  /// {-1, -1} when the task's accesses are unarbitrated there.
  [[nodiscard]] std::pair<int, int> port_lookup(int resource,
                                                tg::TaskId t) const;
};

struct InsertionResult {
  tg::TaskGraph graph;  // rewritten copy (acquire/release inserted)
  ArbitrationPlan plan;
};

/// Runs the full pass.  The input graph must validate; the binding must
/// cover every task/segment/channel the programs touch.  `active_tasks`
/// restricts contention analysis and rewriting to one temporal partition's
/// tasks; nullptr means the whole graph executes together.
[[nodiscard]] InsertionResult insert_arbitration(
    const tg::TaskGraph& graph, const Binding& binding,
    const InsertionOptions& options,
    const std::vector<tg::TaskId>* active_tasks = nullptr);

}  // namespace rcarb::core
