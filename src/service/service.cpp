#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <deque>
#include <map>
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

/// One in-flight client request.  `arrival` is the *first* attempt's
/// cycle, so retry delays count against the client's latency and timeout.
struct Request {
  std::uint64_t arrival = 0;
  int attempts = 0;  // rejections/sheds survived so far
};

/// One dispatch port of a resource: idle, or a request waiting on the Req
/// line, or a request being served (holding the grant).
struct Slot {
  enum class State : std::uint8_t { kIdle, kWaiting, kServing };
  State state = State::kIdle;
  Request req;
  int service_left = 0;
  /// A mutual-exclusion break hit this slot mid-service: the datapath was
  /// driven by several grants at once, so whatever completes is garbage.
  bool poisoned = false;
};

struct ResourceState {
  ResourceState(int ports, core::ArbiterKind kind, int arity,
                core::CheckMode self_check, obs::ArbiterMetrics* metrics)
      : arb(core::make_system_arbiter(ports, {.kind = kind,
                                              .arity = arity,
                                              .rr = {},
                                              .self_check = self_check})),
        probe(metrics),
        slots(static_cast<std::size_t>(ports)),
        req_words(static_cast<std::size_t>((ports + 63) / 64), 0) {
    arb.arbiter->set_observer(&probe);
  }
  core::SystemArbiter arb;
  obs::ArbiterProbe probe;
  std::vector<Slot> slots;
  std::vector<std::uint64_t> req_words;  // Fig. 8 request lines, per word
  std::deque<Request> queue;
  int busy_window = 0;   // serving cycles in the current util window
  bool shed_armed = false;
  // ---- Injected permanent faults. ----
  bool latched = false;  // unprotected latch-up: register frozen, no grants
  bool failed = false;   // resource datapath dead: completions are lost
  std::uint64_t sc_resyncs_seen = 0;  // cumulative-counter delta tracking
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
    RCARB_CHECK(opt_.arbiter_arity >= 2 && opt_.arbiter_arity <= 4,
                "arbiter_arity must be in [2, 4]");
    RCARB_CHECK(opt_.arbiter_kind != core::ArbiterChoice::kAuto ||
                    opt_.arbiter_fmax_budget_mhz > 0.0,
                "arbiter_kind kAuto needs arbiter_fmax_budget_mhz > 0 (the "
                "fmax floor the selected structure must meet)");
    RCARB_CHECK(opt_.retry.max_retries == 0 ||
                    opt_.retry.timeout >
                        static_cast<int>(opt_.retry.backoff_base),
                "retry timeout must exceed backoff_base: the first retry "
                "would already be past the client's deadline, so every "
                "retried request is born dead and goodput silently reads "
                "low for no physical reason");
    kind_ = core::resolve_arbiter_choice(opt_.arbiter_kind, opt_.ports,
                                         opt_.arbiter_fmax_budget_mhz,
                                         opt_.arbiter_arity);
    validate_fault_plan();
    stats_.per_resource.resize(static_cast<std::size_t>(opt_.resources));
    for (int r = 0; r < opt_.resources; ++r) {
      auto& rs = stats_.per_resource[static_cast<std::size_t>(r)];
      reset_resource_stats(rs, "svc" + std::to_string(r), opt_.ports, kind_);
      res_.push_back(std::make_unique<ResourceState>(
          opt_.ports, kind_, opt_.arbiter_arity, opt_.self_check,
          &rs.arbiter));
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
    if (opt_.faults.empty()) return;
    RCARB_CHECK(kind_ == core::ArbiterKind::kFlatFsm && opt_.ports <= 64,
                "service fault injection needs the flat word-width arbiter "
                "(<= 64 ports): the SEU/latch-up surface is its one-hot "
                "register pair");
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
          ResourceState& st = *res_[static_cast<std::size_t>(e.arbiter)];
          const int per_copy = 2 * opt_.ports;
          if (st.arb.sc != nullptr) {
            const int total = st.arb.sc->num_copies() * per_copy;
            const int b = e.bit >= 0 ? e.bit % total : 0;
            st.arb.sc->inject_bit_flip(b / per_copy, b % per_copy);
          } else if (st.arb.rr != nullptr) {
            st.arb.rr->inject_bit_flip(e.bit >= 0 ? e.bit % per_copy : 0);
          }
          break;
        }
        case fault::FaultKind::kArbiterLatchup: {
          ResourceState& st = *res_[static_cast<std::size_t>(e.arbiter)];
          if (st.arb.sc != nullptr) {
            // Latch-up wedges the copy's register at a *corrupt* value (a
            // cell stuck mid-flip).  Corrupt-then-freeze matters: frozen
            // at a clean value the copy could coast undetected for as
            // long as the grant happens to pin, which is not a latch-up —
            // it is nothing.
            st.arb.sc->inject_bit_flip(0, 0);
            st.arb.sc->latch_up(0);
          } else {
            st.latched = true;  // frozen register: the resource goes silent
          }
          break;
        }
        case fault::FaultKind::kBankFailure:
          res_[static_cast<std::size_t>(e.bank)]->failed = true;
          break;
        default:
          break;  // validated unreachable
      }
    }
  }

  void step() {
    // 0. Live fault injection (no-op without a plan).
    apply_faults();
    // 1. Client retry loop: re-inject attempts whose backoff expired.
    if (auto it = wheel_.find(cycle_); it != wheel_.end()) {
      for (const Request& req : it->second) {
        ++stats_.retries;
        submit(req);
      }
      wheel_.erase(it);
    }
    // 2. Open-loop arrivals (these keep coming no matter what).
    const int n = arrivals_.step();
    for (int i = 0; i < n; ++i) {
      ++stats_.offered;
      submit(Request{cycle_, 0});
    }
    // 3. Dispatch + arbitrate + serve, one cycle per resource.
    for (int r = 0; r < opt_.resources; ++r) serve_one_cycle(r);
    ++cycle_;
  }

  void serve_one_cycle(int r) {
    ResourceState& st = *res_[static_cast<std::size_t>(r)];
    auto& rs = stats_.per_resource[static_cast<std::size_t>(r)];
    const degrade::QuarantineState qs = supervisor_.state(r);
    switch (qs) {
      case degrade::QuarantineState::kHealthy:
        // Idle dispatch ports take the queue head (FIFO order).
        for (Slot& slot : st.slots) {
          if (slot.state != Slot::State::kIdle || st.queue.empty()) continue;
          slot.req = st.queue.front();
          st.queue.pop_front();
          slot.state = Slot::State::kWaiting;
          slot.poisoned = false;
        }
        arbitrate_and_serve(r, st, rs);
        break;
      case degrade::QuarantineState::kDraining: {
        // Routing is already failed over and the queue is flushed; the
        // arbiter keeps clocking so in-flight service can finish (a TMR
        // vote still grants through a latched copy; a gated DMR or frozen
        // plain register cannot, and the drain deadline cuts it below).
        arbitrate_and_serve(r, st, rs);
        const bool drained = no_slot_busy(st);
        if (supervisor_.advance(r, cycle_, drained, opt_.ports,
                                opt_.self_check) ==
                degrade::ResourceSupervisor::Transition::kDrained &&
            !drained) {
          ++stats_.drain_aborts;
          flush_slots(st, r);  // leftovers re-enter the client retry loop
        }
        break;
      }
      case degrade::QuarantineState::kReconfiguring: {
        // The region is being rewritten: the arbiter does not clock.
        switch (supervisor_.advance(r, cycle_, true, opt_.ports,
                                    opt_.self_check)) {
          case degrade::ResourceSupervisor::Transition::kRestored:
            ++stats_.restored;
            st.latched = false;
            if (st.arb.sc != nullptr) st.arb.sc->clear_latch_up();
            st.arb.arbiter->reset();
            st.busy_window = 0;  // estimator restarts with the resource
            st.shed_armed = false;
            rebuild_live();
            diag(rcsim::DiagKind::kRemap, r);
            break;
          case degrade::ResourceSupervisor::Transition::kRetired:
            ++stats_.retired;
            rebuild_live();
            diag(rcsim::DiagKind::kRemap, r);
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
    // Windowed utilization with hysteresis: high_water arms shedding,
    // low_water disarms it.  Window boundaries are anchored at the last
    // stats reset so the measured run's first window is always full-width
    // regardless of the warmup length.
    if ((cycle_ + 1 - util_anchor_) %
            static_cast<std::uint64_t>(opt_.util_window) ==
        0) {
      const double util = static_cast<double>(st.busy_window) /
                          static_cast<double>(opt_.util_window);
      st.shed_armed =
          st.shed_armed ? (util > opt_.low_water) : (util > opt_.high_water);
      st.busy_window = 0;
    }
    rs.queue_depth.record(st.queue.size());
  }

  /// One arbitration clock for resource r: build the Req word, step the
  /// (possibly replicated) arbiter, sample the error net, serve the grant.
  void arbitrate_and_serve(int r, ResourceState& st, ResourceStats& rs) {
    if (st.latched) return;  // frozen register: no clocking, no grants
    // Fig. 8 request lines: waiting and serving slots keep Req asserted.
    // Words-encoded so widths past 64 work; at <= 64 ports the base
    // step_wide forwards to the word-based step() unchanged.
    std::fill(st.req_words.begin(), st.req_words.end(), 0);
    for (std::size_t p = 0; p < st.slots.size(); ++p)
      if (st.slots[p].state != Slot::State::kIdle)
        st.req_words[p >> 6] |= 1ull << (p & 63);
    const int g = st.arb.arbiter->step_wide(st.req_words);
    if (st.arb.sc != nullptr) {
      // Self-checking wrapper: harvest the error net and resync counter.
      const std::uint64_t rsy = st.arb.sc->resyncs();
      stats_.resyncs += rsy - st.sc_resyncs_seen;
      rs.arbiter.resyncs += rsy - st.sc_resyncs_seen;
      st.sc_resyncs_seen = rsy;
      if (st.arb.sc->error()) {
        ++stats_.error_net_trips;
        ++rs.arbiter.error_net_trips;
        strike(r, degrade::StrikeSource::kSelfCheckError);
      }
    } else if (st.arb.rr != nullptr && st.arb.rr->last_grant_count() > 1) {
      // Unprotected multi-hot register: several grants at once drive the
      // single-ported datapath.  Whatever is in flight is served to
      // completion and worth nothing — the silent-corruption failure mode
      // self-checking exists to prevent.
      ++stats_.multi_grants;
      for (Slot& slot : st.slots)
        if (slot.state == Slot::State::kServing) slot.poisoned = true;
    }
    if (g >= 0) {
      Slot& slot = st.slots[static_cast<std::size_t>(g)];
      if (slot.state == Slot::State::kWaiting) {
        slot.state = Slot::State::kServing;
        slot.service_left = opt_.service_cycles;
      }
      if (slot.state == Slot::State::kServing) {
        ++st.busy_window;
        if (--slot.service_left == 0) complete(r, slot);
      }
    }
  }

  [[nodiscard]] static bool no_slot_busy(const ResourceState& st) {
    for (const Slot& slot : st.slots)
      if (slot.state != Slot::State::kIdle) return false;
    return true;
  }

  /// Can this resource's arbiter actually grant work right now?
  [[nodiscard]] static bool functioning(const ResourceState& st) {
    if (st.failed || st.latched) return false;
    if (st.arb.sc != nullptr)
      // A latched DMR copy pins the comparator and gates every grant; a
      // latched TMR copy is outvoted, so the triple still serves.
      return !(st.arb.sc->latched() &&
               st.arb.sc->mode() == core::CheckMode::kDuplicate);
    if (st.arb.rr != nullptr) return st.arb.rr->state_legal();
    return true;
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
    diag(rcsim::DiagKind::kQuarantine, r);
    rebuild_live();
    for (const Request& req : st.queue) requeue(req, r);
    st.queue.clear();
    for (Slot& slot : st.slots)
      if (slot.state == Slot::State::kWaiting) {
        slot.state = Slot::State::kIdle;
        requeue(slot.req, r);
      }
  }

  /// Fails one request over through the retry loop with a typed rejection
  /// (it consumes retry budget like any refusal — a quarantine storm must
  /// not amplify load any more than an overload storm can).
  void requeue(const Request& req, int r) {
    ++stats_.requeued;
    ++stats_.rejected;
    ++stats_.per_resource[static_cast<std::size_t>(r)].rejected;
    diag(rcsim::DiagKind::kRejected, r);
    retry_or_fail(req);
  }

  /// Drain deadline force-abort: every occupied slot (waiting or mid-
  /// service on a dead arbiter) fails over.
  void flush_slots(ResourceState& st, int r) {
    for (Slot& slot : st.slots)
      if (slot.state != Slot::State::kIdle) {
        slot.state = Slot::State::kIdle;
        requeue(slot.req, r);
      }
  }

  void rebuild_live() {
    live_.clear();
    for (int r = 0; r < opt_.resources; ++r)
      if (supervisor_.serving(r)) live_.push_back(r);
  }

  void complete(int r, Slot& slot) {
    auto& rs = stats_.per_resource[static_cast<std::size_t>(r)];
    // Retire the slot before anything that might flush slots (a bank-
    // failure strike below can classify and quarantine r mid-call); the
    // request is then failed over exactly once, here.
    slot.state = Slot::State::kIdle;
    if (slot.poisoned) {
      ++stats_.corrupted;
      requeue(slot.req, r);
      return;
    }
    ResourceState& st = *res_[static_cast<std::size_t>(r)];
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
      diag(rcsim::DiagKind::kTimedOut, r);
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
      diag(rcsim::DiagKind::kCapacityExhausted, -1);
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
          diag(rcsim::DiagKind::kShed, r);
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
    st.queue.push_back(req);
  }

  void reject(const Request& req, int r) {
    ++stats_.rejected;
    ++stats_.per_resource[static_cast<std::size_t>(r)].rejected;
    diag(rcsim::DiagKind::kRejected, r);
    retry_or_fail(req);
  }

  void retry_or_fail(const Request& req) {
    if (req.attempts >= opt_.retry.max_retries) {
      ++stats_.budget_exhausted;  // terminal: the retry storm ends here
      return;
    }
    Request next = req;
    ++next.attempts;
    wheel_[cycle_ + retry_delay(opt_.retry, next.attempts, jitter_rng_)]
        .push_back(next);
  }

  void diag(rcsim::DiagKind kind, int resource) {
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
      for (const Slot& slot : st->slots)
        if (slot.state != Slot::State::kIdle) ++n;
    }
    for (const auto& [due, reqs] : wheel_) n += reqs.size();
    return n;
  }

  void reset_stats() {
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
    stats_.serving_resource_cycles = 0;
    stats_.in_flight_at_start = in_flight_now();
    stats_.in_flight_at_end = 0;
    stats_.latency = obs::Histogram{};
    stats_.queue_depth = obs::Histogram{};
    stats_.diagnostics.clear();
    for (std::size_t r = 0; r < stats_.per_resource.size(); ++r)
      reset_resource_stats(stats_.per_resource[r], "svc" + std::to_string(r),
                           opt_.ports, kind_);
    // The admission estimator restarts from a defined state: window phase
    // re-anchored here, empty busy count, shedding disarmed.  Before this
    // the warmup's partial window and armed/disarmed flag leaked into the
    // measured run, so measurements depended on warmup_cycles modulo
    // util_window.
    util_anchor_ = cycle_;
    for (auto& st : res_) {
      st->busy_window = 0;
      st->shed_armed = false;
    }
  }

  void finalize() {
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
  std::map<std::uint64_t, std::vector<Request>> wheel_;  // retry timers
  std::uint64_t cycle_ = 0;
  std::uint64_t util_anchor_ = 0;  // cycle the util windows count from
  core::ArbiterKind kind_ = core::ArbiterKind::kFlatFsm;
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
