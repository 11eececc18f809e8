#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <deque>
#include <memory>
#include <utility>

#include "core/arbiter_factory.hpp"
#include "core/policy.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::service {

std::uint64_t backoff_delay(const RetryPolicy& retry, int attempts) {
  RCARB_CHECK(attempts >= 1, "the first retry is attempt 1");
  const auto base = static_cast<std::uint64_t>(retry.backoff_base);
  const auto limit = static_cast<std::uint64_t>(retry.backoff_limit);
  if (base == 0) return 0;
  // Saturate the exponent: `base << (attempts - 1)` is undefined once the
  // shift reaches 64 (x86's masked shift silently cycles back to short
  // delays), and any shift that would push past the limit lands on the
  // limit anyway.
  const int shift = attempts - 1;
  if (shift >= std::countl_zero(base)) return limit;
  return std::min(base << shift, limit);
}

std::uint64_t retry_delay(const RetryPolicy& retry, int attempts,
                          Rng& jitter_rng) {
  std::uint64_t delay = backoff_delay(retry, attempts);
  // The jitter draw's bound tracks the pre-clamp delay so the Rng stream
  // is unchanged by the final clamp; the clamp then re-asserts the cap
  // (jitter used to be added after it, overshooting by up to 50%).
  if (retry.jitter) delay += jitter_rng.next_below(delay / 2 + 1);
  return std::min(delay, static_cast<std::uint64_t>(retry.backoff_limit));
}

namespace {

/// kAdmitShed hysteresis: a window whose utilization exceeds kShedArm arms
/// shedding, and a window at or below kShedDisarm disarms it.
constexpr double kShedArm = 0.85;
constexpr double kShedDisarm = 0.70;

/// One in-flight client request.  `arrival` is the *first* attempt's
/// cycle, so retry delays count against the client's latency and timeout.
struct Request {
  std::uint64_t arrival = 0;
  int attempts = 0;  // rejections/sheds survived so far
};

/// The request parked on one dispatch port of a resource.  Whether the
/// port is idle, waiting on the Req line or being served (holding the
/// grant) lives in the resource's slot words.
struct Slot {
  Request req;
  int service_left = 0;
  /// A mutual-exclusion break hit this slot mid-service: the datapath was
  /// driven by several grants at once, so whatever completes is garbage.
  bool poisoned = false;
};

struct ResourceState {
  ResourceState(int ports, core::ArbiterKind kind, core::CheckMode self_check,
                obs::ArbiterMetrics* metrics)
      : arb(core::make_system_arbiter(ports, {.kind = kind,
                                              .self_check = self_check})),
        probe(metrics),
        slots(static_cast<std::size_t>(ports)),
        waiting(static_cast<std::size_t>((ports + 63) / 64), 0),
        serving(waiting.size(), 0),
        req_words(waiting.size(), 0) {
    arb.arbiter->set_observer(&probe);
  }
  [[nodiscard]] bool is_waiting(std::size_t p) const {
    return core::test_bit(waiting, p);
  }
  [[nodiscard]] bool is_serving(std::size_t p) const {
    return core::test_bit(serving, p);
  }
  [[nodiscard]] bool any_busy() const {
    return std::any_of(req_words.begin(), req_words.end(),
                       [](std::uint64_t w) { return w != 0; });
  }
  /// Idle slots of word w: the complement of the Req lines, masked to the
  /// width.
  [[nodiscard]] std::uint64_t idle(std::size_t w) const {
    const std::size_t tail = slots.size() - w * 64;  // ports from word w on
    return ~req_words[w] & (tail >= 64 ? ~0ull : (1ull << tail) - 1);
  }
  [[nodiscard]] bool any_idle() const {
    for (std::size_t w = 0; w < req_words.size(); ++w)
      if (idle(w) != 0) return true;
    return false;
  }
  void set_waiting(std::size_t p) {
    core::set_bit(waiting, p);
    core::set_bit(req_words, p);
  }
  void set_serving(std::size_t p) {
    core::clear_bit(waiting, p);
    core::set_bit(serving, p);
  }
  void set_idle(std::size_t p) {
    core::clear_bit(waiting, p);
    core::clear_bit(serving, p);
    core::clear_bit(req_words, p);
  }

  core::SystemArbiter arb;
  obs::ArbiterProbe probe;
  std::vector<Slot> slots;
  // Slot states as words (bit p of word p/64 = port p); idle is the
  // complement of `req_words`.
  std::vector<std::uint64_t> waiting;  // on the Req line, not yet granted
  std::vector<std::uint64_t> serving;  // holding the grant
  std::vector<std::uint64_t> req_words;  // Fig. 8 Req lines: waiting|serving
  std::deque<Request> queue;
  int busy_window = 0;   // serving cycles in the current util window
  bool shed_armed = false;
  // ---- Injected permanent faults. ----
  bool latched = false;  // latch-up: the arbiter is frozen until restored
  bool failed = false;   // resource datapath dead: completions are lost
  std::uint64_t resyncs_seen = 0;  // cumulative-counter delta tracking
  // ---- Event-driven stepping (Engine::hold_is_fixed). ----
  bool held = false;         // on a held grant: no arbiter step is due
  std::size_t holder = 0;    // the slot holding that grant
  std::uint64_t synced = 0;  // first cycle not yet accounted
  std::uint64_t wake = 0;    // next cycle serve_one_cycle runs
};

/// Re-initializes the measured fields of one ResourceStats in place —
/// in place, because the attached ArbiterProbe borrows the ArbiterMetrics
/// object and its port vector must stay sized.
void reset_resource_stats(ResourceStats& rs, const std::string& name,
                          int ports, core::ArbiterKind kind) {
  const auto keep_port = static_cast<std::size_t>(ports);
  rs = ResourceStats{};
  rs.name = name;
  rs.arbiter.name = name;
  rs.arbiter.kind = core::to_string(kind);
  rs.arbiter.ports = ports;
  rs.arbiter.port.assign(keep_port, obs::PortMetrics{});
}

class Engine {
 public:
  explicit Engine(const ServiceOptions& options)
      : opt_(options),
        arrivals_(options.arrivals, derive_seed(options.seed, 1)),
        route_rng_(derive_seed(options.seed, 2)),
        jitter_rng_(derive_seed(options.seed, 3)) {
    RCARB_CHECK(opt_.resources >= 1, "need at least one resource");
    RCARB_CHECK(opt_.ports >= 1 && opt_.ports <= core::kMaxWideInputs,
                "ports per resource must be in [1, kMaxWideInputs]");
    RCARB_CHECK(opt_.service_cycles >= 1, "service_cycles must be positive");
    RCARB_CHECK(opt_.queue_capacity >= 1, "queue_capacity must be positive");
    RCARB_CHECK(opt_.util_window >= 1, "util_window must be positive");
    RCARB_CHECK(opt_.retry.max_retries == 0 ||
                    opt_.retry.timeout >
                        static_cast<int>(opt_.retry.backoff_base),
                "retry timeout must exceed backoff_base: the first retry "
                "would already be past the client's deadline, so every "
                "retried request is born dead and goodput silently reads "
                "low for no physical reason");
    RCARB_CHECK(opt_.retry.max_retries <= 0 ||
                    (opt_.retry.backoff_base >= 1 &&
                     opt_.retry.backoff_limit >= 1 &&
                     opt_.retry.backoff_limit <= kMaxBackoffLimit),
                "retries need backoff_base >= 1 and backoff_limit in [1, "
                "kMaxBackoffLimit]: a zero delay would file the retry under "
                "the cycle whose timers already fired, and the limit sizes "
                "the retry ring");
    if (opt_.retry.max_retries > 0)
      wheel_.resize(std::bit_ceil(
          static_cast<std::size_t>(opt_.retry.backoff_limit) + 1));
    validate_fault_plan();
    stats_.per_resource.resize(static_cast<std::size_t>(opt_.resources));
    for (int r = 0; r < opt_.resources; ++r) {
      auto& rs = stats_.per_resource[static_cast<std::size_t>(r)];
      reset_resource_stats(rs, "svc" + std::to_string(r), opt_.ports,
                           opt_.arbiter_kind);
      res_.push_back(std::make_unique<ResourceState>(
          opt_.ports, opt_.arbiter_kind, opt_.self_check, &rs.arbiter));
      live_.push_back(r);
    }
    supervisor_ = degrade::ResourceSupervisor(opt_.resources, opt_.degrade);
  }

  ServiceStats run() {
    for (std::uint64_t i = 0; i < opt_.warmup_cycles; ++i) step();
    reset_stats();  // measurement starts now; queues/rng/wheel carry over
    for (std::uint64_t i = 0; i < opt_.measure_cycles; ++i) step();
    finalize();
    return std::move(stats_);
  }

 private:
  void validate_fault_plan() const {
    std::uint64_t prev = 0;
    for (const fault::FaultEvent& e : opt_.faults) {
      RCARB_CHECK(e.cycle >= prev, "fault plan must be cycle-sorted");
      prev = e.cycle;
      switch (e.kind) {
        case fault::FaultKind::kFsmBitFlip:
        case fault::FaultKind::kArbiterLatchup:
          RCARB_CHECK(e.arbiter >= 0 && e.arbiter < opt_.resources,
                      "fault event targets an arbiter out of range");
          break;
        case fault::FaultKind::kBankFailure:
          RCARB_CHECK(e.bank >= 0 && e.bank < opt_.resources,
                      "fault event targets a resource (bank) out of range");
          break;
        default:
          RCARB_CHECK(false,
                      "fault kind is not service-injectable (see "
                      "fault::plan_service_faults)");
      }
    }
  }

  /// Applies every plan event due this cycle, before arrivals and service
  /// (a fault "at cycle c" is visible to cycle c's arbitration).
  void apply_faults() {
    while (next_fault_ < opt_.faults.size() &&
           opt_.faults[next_fault_].cycle <= cycle_) {
      const fault::FaultEvent& e = opt_.faults[next_fault_++];
      ++stats_.faults_injected;
      switch (e.kind) {
        case fault::FaultKind::kFsmBitFlip: {
          // Upsets spread over the whole register, copies included
          // (copy-major), as fault::plan_service_faults draws them.
          core::Arbiter& arb = *res_[static_cast<std::size_t>(e.arbiter)]
                                    ->arb.arbiter;
          if (arb.num_state_bits() > 0)
            arb.flip_state_bit(e.bit >= 0 ? e.bit % arb.num_state_bits()
                                          : 0);
          break;
        }
        case fault::FaultKind::kArbiterLatchup: {
          // Latch-up wedges a register at a *corrupt* value (a cell stuck
          // mid-flip): copy 0's under self-checking, the whole register
          // otherwise.  Corrupt-then-freeze matters: frozen at a clean
          // value a copy could coast undetected for as long as the grant
          // happens to pin, which is not a latch-up — it is nothing.
          ResourceState& st = *res_[static_cast<std::size_t>(e.arbiter)];
          core::Arbiter& arb = *st.arb.arbiter;
          if (arb.num_state_bits() > 0) arb.flip_state_bit(0);
          arb.freeze();
          st.latched = true;
          break;
        }
        case fault::FaultKind::kBankFailure:
          res_[static_cast<std::size_t>(e.bank)]->failed = true;
          break;
        default:
          break;  // validated unreachable
      }
      // The register or the datapath changed under the hold: step now.
      ResourceState& hit = *res_[static_cast<std::size_t>(
          e.kind == fault::FaultKind::kBankFailure ? e.bank : e.arbiter)];
      hit.held = false;
      hit.wake = cycle_;
    }
  }

  void step() {
    // 0. Live fault injection (no-op without a plan).
    apply_faults();
    // 1. Client retry loop: re-inject attempts whose backoff expired.
    // Their own re-refusals land in other buckets (every delay is >= 1
    // and <= backoff_limit), so this one is stable while it drains.
    if (!wheel_.empty()) {
      std::vector<Request>& due = wheel_[cycle_ & (wheel_.size() - 1)];
      for (const Request& req : due) {
        ++stats_.retries;
        submit(req);
      }
      due.clear();  // keeps its capacity: steady state allocates nothing
    }
    // 2. Open-loop arrivals (these keep coming no matter what).
    const int n = arrivals_.step();
    for (int i = 0; i < n; ++i) {
      ++stats_.offered;
      submit(Request{cycle_, 0});
    }
    // 3. Dispatch + arbitrate + serve, one cycle per resource that has an
    // event due (the others sit on a held grant, see hold_is_fixed).
    const bool window_end = --util_left_ == 0;
    if (window_end) util_left_ = static_cast<std::uint64_t>(opt_.util_window);
    for (int r = 0; r < opt_.resources; ++r)
      if (res_[static_cast<std::size_t>(r)]->wake <= cycle_)
        serve_one_cycle(r, window_end);
    ++cycle_;
  }

  void serve_one_cycle(int r, bool window_end) {
    ResourceState& st = *res_[static_cast<std::size_t>(r)];
    auto& rs = stats_.per_resource[static_cast<std::size_t>(r)];
    catch_up(st, rs, cycle_);
    const degrade::QuarantineState qs = supervisor_.state(r);
    int g = -1;
    switch (qs) {
      case degrade::QuarantineState::kHealthy:
        if (st.held) {
          // The step would re-grant the holder and change nothing.
          hold(st, 1);
          g = static_cast<int>(st.holder);
          if (st.slots[st.holder].service_left == 0)
            complete(r, st, st.holder);
        } else {
          dispatch(st);
          g = arbitrate_and_serve(r, st, rs);
        }
        break;
      case degrade::QuarantineState::kDraining: {
        // Routing is already failed over and the queue is flushed; the
        // arbiter keeps clocking so in-flight service can finish (a TMR
        // vote still grants through a latched copy; a gated DMR or frozen
        // plain register cannot, and the drain deadline cuts it below).
        arbitrate_and_serve(r, st, rs);
        if (st.any_busy() &&
            supervisor_.advance(r, cycle_, false, opt_.ports,
                                opt_.self_check) ==
                degrade::ResourceSupervisor::Transition::kDrainOverdue) {
          ++stats_.drain_aborts;
          flush_slots(st, r);  // leftovers re-enter the client retry loop
        }
        if (!st.any_busy())
          supervisor_.advance(r, cycle_, true, opt_.ports, opt_.self_check);
        break;
      }
      case degrade::QuarantineState::kReconfiguring: {
        // The region is being rewritten: the arbiter does not clock.
        switch (supervisor_.advance(r, cycle_, true, opt_.ports,
                                    opt_.self_check)) {
          case degrade::ResourceSupervisor::Transition::kRestored:
            ++stats_.restored;
            st.latched = false;
            st.arb.arbiter->thaw();
            st.arb.arbiter->reset();
            st.busy_window = 0;  // estimator restarts with the resource
            st.shed_armed = false;
            rebuild_live();
            diag(obs::DiagKind::kRemap, r);
            break;
          case degrade::ResourceSupervisor::Transition::kRetired:
            ++stats_.retired;
            rebuild_live();
            diag(obs::DiagKind::kRemap, r);
            break;
          default:
            break;
        }
        break;
      }
      case degrade::QuarantineState::kRemapped:
      case degrade::QuarantineState::kCapacityExhausted:
        break;  // permanently retired: nothing ever runs here again
    }
    // Ground-truth availability: a resource-cycle counts when the resource
    // is routable *and* its arbiter can actually grant.  A frozen or dead
    // arbiter the supervisor has not caught is unavailable even though
    // routing still targets it — that gap is the unprotected baseline's
    // availability collapse.
    if (qs == degrade::QuarantineState::kHealthy && functioning(st))
      ++stats_.serving_resource_cycles;
    // Windowed utilization with hysteresis (kShedArm / kShedDisarm).
    // Window boundaries are anchored at the last stats reset so the
    // measured run's first window is always full-width regardless of the
    // warmup length.
    if (window_end) {
      const double util = static_cast<double>(st.busy_window) /
                          static_cast<double>(opt_.util_window);
      st.shed_armed =
          st.shed_armed ? (util > kShedDisarm) : (util > kShedArm);
      st.busy_window = 0;
    }
    rs.queue_depth.record(st.queue.size());
    st.synced = cycle_ + 1;
    if (g >= 0) st.holder = static_cast<std::size_t>(g);
    st.held = g >= 0 && hold_is_fixed(r, st);
    // On the hold, r next has something to do at the holder's completion
    // or at the util-window boundary (faults and dispatchable work wake
    // it sooner, in apply_faults and submit); in between it sleeps.
    st.wake = st.held ? std::min(cycle_ + static_cast<std::uint64_t>(
                                              st.slots[st.holder].service_left),
                                 cycle_ + util_left_)
                      : cycle_ + 1;
  }

  /// True when resource r, whose last step granted st.holder, is at a
  /// fixed point.  A held grant is one of every arbiter kind that answers
  /// holds_grant(): while the holder's Req stays up, each step re-grants it
  /// and leaves the register as it was, and the probe sees the same step
  /// again.  So while r is supervisor-healthy and functioning, its holder
  /// mid-service and dispatch idle (no idle slot, or no queued work), a
  /// cycle of r only counts the service down: serve_one_cycle runs one
  /// without the step, and catch_up accounts any number at once.  The
  /// hold ends at the holder's completion, a fault on r, or work queued
  /// while a slot is idle.
  [[nodiscard]] bool hold_is_fixed(int r, const ResourceState& st) const {
    const core::Arbiter& arb = *st.arb.arbiter;
    return supervisor_.state(r) == degrade::QuarantineState::kHealthy &&
           !st.latched && functioning(st) && st.is_serving(st.holder) &&
           arb.last_grant_count() == 1 && arb.holds_grant() &&
           (st.queue.empty() || !st.any_idle());
  }

  /// k arbitration clocks on the hold (hold_is_fixed), short of the
  /// holder's completion: only the probe and the holder's service move.
  void hold(ResourceState& st, std::uint64_t k) {
    stats_.skipped_resource_cycles += k;
    st.probe.held_steps(k);
    st.busy_window += static_cast<int>(k);
    st.slots[st.holder].service_left -= static_cast<int>(k);
  }

  /// Accounts the cycles [st.synced, until) that st slept through on the
  /// hold, with their availability and queue-depth samples (the queue has
  /// not changed since st.synced).
  void catch_up(ResourceState& st, ResourceStats& rs, std::uint64_t until) {
    const std::uint64_t k = until - st.synced;
    if (k == 0) return;
    hold(st, k);
    stats_.serving_resource_cycles += k;
    rs.queue_depth.record(st.queue.size(), k);
    st.synced = until;
  }

  /// Idle dispatch ports take the queue head: FIFO order onto the lowest
  /// idle port first.
  static void dispatch(ResourceState& st) {
    for (std::size_t w = 0; w < st.req_words.size() && !st.queue.empty();
         ++w) {
      for (std::uint64_t idle = st.idle(w); idle != 0 && !st.queue.empty();
           idle &= idle - 1) {
        const std::size_t p =
            w * 64 + static_cast<std::size_t>(std::countr_zero(idle));
        Slot& slot = st.slots[p];
        slot.req = st.queue.front();
        st.queue.pop_front();
        slot.poisoned = false;
        st.set_waiting(p);
      }
    }
  }

  /// One arbitration clock for resource r: step the (possibly replicated)
  /// arbiter on the Req words, sample the error net, serve the grant.
  /// Returns the grant (-1: none).
  int arbitrate_and_serve(int r, ResourceState& st, ResourceStats& rs) {
    // A latch-up silences an unprotected arbiter (no clocking, no grants);
    // a self-checking one keeps clocking on its healthy copies.
    if (st.latched && opt_.self_check == core::CheckMode::kNone) return -1;
    core::Arbiter& arb = *st.arb.arbiter;
    // Fig. 8 request lines: waiting and serving slots keep Req asserted.
    const int g = arb.step(st.req_words);
    // Harvest the error net and resync counter (both stay at zero without
    // self-checking).
    if (arb.resyncs() != st.resyncs_seen) {
      stats_.resyncs += arb.resyncs() - st.resyncs_seen;
      rs.arbiter.resyncs += arb.resyncs() - st.resyncs_seen;
      st.resyncs_seen = arb.resyncs();
    }
    if (arb.error()) {
      ++stats_.error_net_trips;
      ++rs.arbiter.error_net_trips;
      strike(r, degrade::StrikeSource::kSelfCheckError);
    } else if (arb.last_grant_count() > 1) {
      // Unprotected multi-hot register: several grants at once drive the
      // single-ported datapath.  Whatever is in flight is served to
      // completion and worth nothing — the silent-corruption failure mode
      // self-checking exists to prevent.
      ++stats_.multi_grants;
      core::for_each_bit(st.serving,
                   [&](std::size_t p) { st.slots[p].poisoned = true; });
    }
    if (g >= 0) {
      const auto p = static_cast<std::size_t>(g);
      Slot& slot = st.slots[p];
      if (st.is_waiting(p)) {
        st.set_serving(p);
        slot.service_left = opt_.service_cycles;
      }
      if (st.is_serving(p)) {
        ++st.busy_window;
        if (--slot.service_left == 0) complete(r, st, p);
      }
    }
    return g;
  }

  /// Can this resource's arbiter actually grant work right now?
  [[nodiscard]] bool functioning(const ResourceState& st) const {
    if (st.failed) return false;
    // A latched DMR copy pins the comparator and gates every grant; a
    // latched TMR copy is outvoted, so the triple still serves.
    if (st.latched) return opt_.self_check == core::CheckMode::kTmr;
    return st.arb.arbiter->state_legal();
  }

  void strike(int r, degrade::StrikeSource source) {
    ++stats_.strikes;
    if (supervisor_.strike(r, cycle_, source) ==
        degrade::ResourceSupervisor::Transition::kQuarantined)
      begin_quarantine(r);
  }

  /// K-in-W classification fired: stop routing here, fail the queued and
  /// not-yet-served work over through the client retry loop (typed
  /// kRejected diagnostics — no work is silently lost), and let the slots
  /// already holding the grant drain.
  void begin_quarantine(int r) {
    ResourceState& st = *res_[static_cast<std::size_t>(r)];
    ++stats_.quarantines;
    diag(obs::DiagKind::kQuarantine, r);
    rebuild_live();
    for (const Request& req : st.queue) requeue(req, r);
    st.queue.clear();
    core::for_each_bit(st.waiting, [&](std::size_t p) {
      st.set_idle(p);
      requeue(st.slots[p].req, r);
    });
  }

  /// Fails one request over through the retry loop with a typed rejection
  /// (it consumes retry budget like any refusal — a quarantine storm must
  /// not amplify load any more than an overload storm can).
  void requeue(const Request& req, int r) {
    ++stats_.requeued;
    ++stats_.rejected;
    ++stats_.per_resource[static_cast<std::size_t>(r)].rejected;
    diag(obs::DiagKind::kRejected, r);
    retry_or_fail(req);
  }

  /// Drain deadline force-abort: every occupied slot (waiting or mid-
  /// service on a dead arbiter) fails over.
  void flush_slots(ResourceState& st, int r) {
    core::for_each_bit(st.req_words, [&](std::size_t p) {
      st.set_idle(p);
      requeue(st.slots[p].req, r);
    });
  }

  void rebuild_live() {
    live_.clear();
    for (int r = 0; r < opt_.resources; ++r)
      if (supervisor_.serving(r)) live_.push_back(r);
  }

  void complete(int r, ResourceState& st, std::size_t p) {
    auto& rs = stats_.per_resource[static_cast<std::size_t>(r)];
    const Slot& slot = st.slots[p];
    // Retire the slot before anything that might flush slots (a bank-
    // failure strike below can classify and quarantine r mid-call); the
    // request is then failed over exactly once, here.
    st.set_idle(p);
    if (slot.poisoned) {
      ++stats_.corrupted;
      requeue(slot.req, r);
      return;
    }
    if (st.failed) {
      // The datapath is dead: the "service" produced nothing.  The client
      // sees a failure and retries; the supervisor sees bank evidence.
      ++stats_.failed_service;
      strike(r, degrade::StrikeSource::kBankFailure);
      requeue(slot.req, r);
      return;
    }
    const std::uint64_t sojourn = cycle_ - slot.req.arrival + 1;
    if (sojourn > static_cast<std::uint64_t>(opt_.retry.timeout)) {
      // The client gave up long ago: the service was real, the goodput is
      // not.  This is the mechanism behind blocking's congestion collapse.
      ++stats_.timed_out;
      ++rs.timed_out;
      diag(obs::DiagKind::kTimedOut, r);
    } else {
      ++stats_.completed;
      ++rs.completed;
      rs.latency.record(sojourn);
    }
    // Req drops next cycle's mask; the arbiter rotates to the next waiter.
  }

  void submit(const Request& req) {
    if (live_.empty()) {
      // Every resource is quarantined or retired: admission has nowhere
      // to route.  Typed capacity-exhausted rejection; the retry loop may
      // find a restored resource by the time the backoff expires.
      ++stats_.rejected;
      diag(obs::DiagKind::kCapacityExhausted, -1);
      retry_or_fail(req);
      return;
    }
    // Failover routing over the live (supervisor-healthy) resources.  With
    // nothing quarantined this draws next_below(resources) over the
    // identity list — the exact stream the fault-free engine always drew,
    // so fault-tolerance costs byte-identical baselines nothing.
    const int r = live_[static_cast<std::size_t>(
        route_rng_.next_below(static_cast<std::uint64_t>(live_.size())))];
    ResourceState& st = *res_[static_cast<std::size_t>(r)];
    auto& rs = stats_.per_resource[static_cast<std::size_t>(r)];
    ++rs.offered;
    const auto depth = static_cast<int>(st.queue.size());
    switch (opt_.policy) {
      case OverloadPolicy::kAdmitShed:
        if (st.shed_armed && depth >= opt_.admit_queue_threshold) {
          ++stats_.shed;
          ++rs.shed;
          diag(obs::DiagKind::kShed, r);
          retry_or_fail(req);
          return;
        }
        if (depth >= opt_.queue_capacity) {
          reject(req, r);
          return;
        }
        break;
      case OverloadPolicy::kTailDrop:
        if (depth >= opt_.queue_capacity) {
          reject(req, r);
          return;
        }
        break;
      case OverloadPolicy::kBlock:
        // The backlog bound only exists to keep memory finite; a real
        // blocking producer would simply stall here forever.
        if (depth >= opt_.queue_capacity * opt_.block_backlog_factor) {
          reject(req, r);
          return;
        }
        break;
    }
    // Asleep, r sampled the depth before this push on every cycle it
    // skipped; with a slot idle, the push ends its hold (dispatch is due).
    catch_up(st, rs, cycle_);
    if (st.held && st.any_idle()) {
      st.held = false;
      st.wake = cycle_;
    }
    st.queue.push_back(req);
  }

  void reject(const Request& req, int r) {
    ++stats_.rejected;
    ++stats_.per_resource[static_cast<std::size_t>(r)].rejected;
    diag(obs::DiagKind::kRejected, r);
    retry_or_fail(req);
  }

  void retry_or_fail(const Request& req) {
    if (req.attempts >= opt_.retry.max_retries) {
      ++stats_.budget_exhausted;  // terminal: the retry storm ends here
      return;
    }
    Request next = req;
    ++next.attempts;
    const std::uint64_t due =
        cycle_ + retry_delay(opt_.retry, next.attempts, jitter_rng_);
    wheel_[due & (wheel_.size() - 1)].push_back(next);
  }

  void diag(obs::DiagKind kind, int resource) {
    if (static_cast<int>(stats_.diagnostics.size()) >= opt_.max_diagnostics)
      return;
    stats_.diagnostics.push_back({kind, cycle_, -1, resource, {}});
  }

  /// Requests currently parked anywhere in the system: resource queues,
  /// dispatch slots, and the retry wheel (the conservation invariant's
  /// in-flight terms).
  [[nodiscard]] std::uint64_t in_flight_now() const {
    std::uint64_t n = 0;
    for (const auto& st : res_) {
      n += st->queue.size();
      for (const std::uint64_t w : st->req_words)
        n += static_cast<std::uint64_t>(std::popcount(w));
    }
    for (const auto& due : wheel_) n += due.size();
    return n;
  }

  /// Brings every asleep resource's accounting up to cycle_.
  void catch_up_all() {
    for (std::size_t r = 0; r < res_.size(); ++r)
      catch_up(*res_[r], stats_.per_resource[r], cycle_);
  }

  void reset_stats() {
    // The warmup's skipped cycles land in its stats, discarded below.
    catch_up_all();
    // The probes point into per_resource[r].arbiter, so every reset is in
    // place: the vector must never reallocate or be replaced.
    stats_.cycles = 0;
    stats_.offered = stats_.completed = stats_.timed_out = 0;
    stats_.rejected = stats_.shed = 0;
    stats_.retries = stats_.budget_exhausted = 0;
    stats_.faults_injected = stats_.error_net_trips = stats_.resyncs = 0;
    stats_.multi_grants = stats_.corrupted = stats_.failed_service = 0;
    stats_.strikes = stats_.quarantines = stats_.drain_aborts = 0;
    stats_.restored = stats_.retired = stats_.requeued = 0;
    stats_.serving_resource_cycles = stats_.skipped_resource_cycles = 0;
    stats_.in_flight_at_start = in_flight_now();
    stats_.in_flight_at_end = 0;
    stats_.latency = obs::Histogram{};
    stats_.queue_depth = obs::Histogram{};
    stats_.diagnostics.clear();
    // Each probe first adds its open waits to the warmup's wait_cycles
    // (discarded with them); its waits, hold and turns carry over.
    for (auto& st : res_) st->probe.settle();
    for (std::size_t r = 0; r < stats_.per_resource.size(); ++r)
      reset_resource_stats(stats_.per_resource[r], "svc" + std::to_string(r),
                           opt_.ports, opt_.arbiter_kind);
    // The admission estimator restarts from a defined state: window phase
    // re-anchored here, empty busy count, shedding disarmed.  Before this
    // the warmup's partial window and armed/disarmed flag leaked into the
    // measured run, so measurements depended on warmup_cycles modulo
    // util_window.  A sleep timed against the old phase ends no later
    // than the new phase's first boundary (it began at most a window ago).
    util_left_ = static_cast<std::uint64_t>(opt_.util_window);
    for (auto& st : res_) {
      st->busy_window = 0;
      st->shed_armed = false;
    }
  }

  void finalize() {
    catch_up_all();
    stats_.cycles = opt_.measure_cycles;
    stats_.in_flight_at_end = in_flight_now();
    stats_.quarantine_events = supervisor_.records();
    for (std::size_t r = 0; r < res_.size(); ++r) {
      res_[r]->probe.finish();
      stats_.latency.merge(stats_.per_resource[r].latency);
      stats_.queue_depth.merge(stats_.per_resource[r].queue_depth);
    }
  }

  ServiceOptions opt_;
  ArrivalProcess arrivals_;
  Rng route_rng_;
  Rng jitter_rng_;
  std::vector<std::unique_ptr<ResourceState>> res_;
  /// Client retry timers: a ring of bit_ceil(backoff_limit + 1) buckets,
  /// bucket `due & (size - 1)` holding the attempts due at cycle `due` in
  /// push order.  Empty when retries are off.
  std::vector<std::vector<Request>> wheel_;
  std::uint64_t cycle_ = 0;
  /// Cycles until the util window closes, this one included (counted down
  /// by step(); the window closes on the cycle it reaches 0).
  std::uint64_t util_left_ = static_cast<std::uint64_t>(opt_.util_window);
  degrade::ResourceSupervisor supervisor_;
  std::size_t next_fault_ = 0;  // cursor into opt_.faults
  std::vector<int> live_;       // routable resources, ascending
  ServiceStats stats_;
};

}  // namespace

const char* to_string(OverloadPolicy p) {
  switch (p) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kTailDrop: return "tail-drop";
    case OverloadPolicy::kAdmitShed: return "admit-shed";
  }
  return "?";
}

double ServiceStats::goodput() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(completed) /
                           static_cast<double>(cycles);
}

double ServiceStats::offered_rate() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(offered) /
                           static_cast<double>(cycles);
}

double ServiceStats::availability() const {
  const double denom = static_cast<double>(cycles) *
                       static_cast<double>(per_resource.size());
  return denom == 0.0
             ? 1.0
             : static_cast<double>(serving_resource_cycles) / denom;
}

double ServiceStats::mttr_cycles() const {
  std::uint64_t sum = 0;
  std::uint64_t n = 0;
  for (const auto& q : quarantine_events) {
    if (q.restored_cycle == 0) continue;  // still draining/reconfiguring
    sum += q.repair_cycles();
    ++n;
  }
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

std::string ServiceStats::summarize() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "offered=%.4f/cyc goodput=%.4f/cyc timeout=%llu rej=%llu "
                "shed=%llu retry=%llu spent=%llu p99<=%llu",
                offered_rate(), goodput(),
                static_cast<unsigned long long>(timed_out),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(budget_exhausted),
                static_cast<unsigned long long>(latency.percentile(0.99)));
  return buf;
}

std::string ServiceStats::summarize_faults() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "faults=%llu err=%llu resync=%llu multi=%llu corrupt=%llu "
                "strikes=%llu quar=%llu restored=%llu retired=%llu "
                "avail=%.4f mttr=%.0f",
                static_cast<unsigned long long>(faults_injected),
                static_cast<unsigned long long>(error_net_trips),
                static_cast<unsigned long long>(resyncs),
                static_cast<unsigned long long>(multi_grants),
                static_cast<unsigned long long>(corrupted),
                static_cast<unsigned long long>(strikes),
                static_cast<unsigned long long>(quarantines),
                static_cast<unsigned long long>(restored),
                static_cast<unsigned long long>(retired), availability(),
                mttr_cycles());
  return buf;
}

ServiceStats run_service(const ServiceOptions& options) {
  return Engine(options).run();
}

double measure_capacity(ServiceOptions options) {
  // Saturate well past any plausible capacity under tail-drop (short,
  // bounded sojourns: the servers stay busy and almost nothing times
  // out), with retries off so the arrival stream is the only load.
  options.policy = OverloadPolicy::kTailDrop;
  options.arrivals = {};
  options.arrivals.kind = ArrivalKind::kPoisson;
  options.arrivals.rate = 2.0 * static_cast<double>(options.resources) /
                          static_cast<double>(options.service_cycles);
  options.retry.max_retries = 0;
  const ServiceStats s = run_service(options);
  return options.measure_cycles == 0
             ? 0.0
             : static_cast<double>(s.completed + s.timed_out) /
                   static_cast<double>(s.cycles);
}

}  // namespace rcarb::service
