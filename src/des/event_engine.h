#ifndef SPARDL_DES_EVENT_ENGINE_H_
#define SPARDL_DES_EVENT_ENGINE_H_

#include <cstdint>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "topo/topology.h"

namespace spardl {

/// A message in flight through the event engine, identified by a
/// deterministic key (see `EventEngine::InjectFlowLocked`). One flow has at
/// most one pending event: the arrival of its header at `path[hop]`.
struct Flow {
  std::vector<LinkId> path;
  size_t words = 0;
  int hop = 0;
  /// Max serialization time over the hops crossed so far (cut-through: the
  /// body is serialized once, at the bottleneck link).
  double bottleneck = 0.0;
  /// Endpoints and send time, kept for the flow dependency record handed
  /// to the trace recorder when the flow resolves.
  int src = -1;
  int dst = -1;
  double sent_at = 0.0;
  /// Per-hop service record, filled only while a trace recorder is
  /// attached (analysis needs the full dependency chain; the plain
  /// charge path should not pay for it).
  std::vector<FlowHop> hops;
};

/// Min-heap of per-hop transmission events, ordered by `(time, flow key)`.
///
/// The flow key embeds `(src, dst, per-pair sequence)` in that
/// significance order, so ties at equal simulated time break by sender
/// rank, then receiver rank, then the sender's own (deterministic) send
/// order — never by wall-clock arrival or thread interleaving.
class EventQueue {
 public:
  struct Event {
    double time;
    uint64_t flow;
  };

  void Push(double time, uint64_t flow) { heap_.push(Event{time, flow}); }
  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  /// Removes and returns the earliest event. Undefined when empty.
  Event PopEarliest() {
    Event event = heap_.top();
    heap_.pop();
    return event;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.flow > b.flow;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

/// Per-link transmission server: owns the link's busy-until clock and
/// applies the cut-through hop arithmetic (see `Topology`).
class LinkServer {
 public:
  /// Serves one header arriving at `head_in`: the header leaves at
  /// `max(head_in, busy_until) + alpha` and the link stays occupied until
  /// the whole body (serialization `serialize`) has crossed. Returns the
  /// header's departure time. `bytes` only feeds the usage counters.
  double Serve(double head_in, double alpha, double serialize,
               uint64_t bytes = 0) {
    const double wait = busy_until_ > head_in ? busy_until_ - head_in : 0.0;
    const double start = head_in + wait;
    const double head_out = start + alpha;
    busy_until_ = head_out + serialize;
    usage_.busy_seconds += alpha + serialize;
    usage_.bytes += bytes;
    usage_.messages += 1;
    if (wait > usage_.max_queue_seconds) usage_.max_queue_seconds = wait;
    return head_out;
  }

  double busy_until() const { return busy_until_; }
  const LinkUsage& usage() const { return usage_; }
  void Reset() {
    busy_until_ = 0.0;
    usage_ = LinkUsage{};
  }

 private:
  double busy_until_ = 0.0;
  LinkUsage usage_;
};

/// The simnet v3 deterministic discrete-event engine: the one mechanism
/// that charges messages, on every fabric.
///
/// A flow is injected when its *sender* posts it (link occupancy is
/// anchored at logical send times, so no receiver-side information is
/// needed), and per-hop transmission events are processed in
/// `(time, flow key)` order from a global `EventQueue`, so contended
/// times never depend on which worker happened to run first.
///
/// Closed-form fabrics (`Topology::closed_form_charge`, i.e. flat) have
/// no link state to order: the engine injects nothing for them, hands
/// out flow key 0 (always resolved), and charges the topology's closed
/// form at delivery. It allocates no `LinkServer`s and no per-pair
/// sequence table there (flat has P^2 links).
///
/// The engine is a pure charge engine: it never blocks, wakes or counts
/// workers. When to pump is the `Scheduler`'s decision (it calls
/// `PumpOneLocked` only when every live worker is blocked, so the
/// pending flow set is a pure function of the SPMD program), and the
/// worker a resolution releases is the flow's receiver (`FlowDst`).
///
/// Locking: one engine mutex guards everything — flows, links, queue,
/// and (via `mu()`) the `Network`, `Scheduler` and protocol-checker state
/// that must change atomically with them (mailboxes, barrier, clock sync,
/// waiter states, op logs).
class EventEngine {
 public:
  /// `topology` must outlive the engine; link parameters (including
  /// `SetNodeScale` scaling) are read through it at serve time.
  explicit EventEngine(const Topology& topology);

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// The engine mutex, the simulator's only mutex. `Network` holds it
  /// (via `std::unique_lock`) across every mailbox/barrier/sync operation
  /// and protocol-checker hook.
  std::mutex& mu() const { return mu_; }

  /// Injects a `words`-word flow from `src` to `dst` at simulated time
  /// `sent_at` and returns its deterministic key: `(src*P + dst) << 32 |
  /// per-pair sequence` (never 0: the self-pair (0, 0) cannot send). On
  /// closed-form fabrics injects nothing and returns 0: the message is
  /// deliverable at once. Caller holds `mu()`.
  uint64_t InjectFlowLocked(int src, int dst, size_t words, double sent_at);

  /// The receiver rank encoded in flow key `flow` (the key's upper half
  /// is `src*P + dst`).
  int FlowDst(uint64_t flow) const {
    return static_cast<int>((flow >> 32) %
                            static_cast<uint64_t>(topology_.num_workers()));
  }

  /// True once `flow`'s arrival time has been computed (always for the
  /// closed-form key 0). Caller holds `mu()`.
  bool ResolvedLocked(uint64_t flow) const {
    return flow == 0 || resolved_.count(flow) != 0;
  }

  /// Consumes a resolved message and returns its delivery time at a
  /// receiver whose clock reads `receiver_now`: the topology's closed
  /// form for key 0, else `max(receiver_now, arrival)` (traversal
  /// overlaps receiver compute; consumption waits for whichever finishes
  /// last). CHECK-fails on an unresolved flow. Caller holds `mu()`.
  double TakeDeliveryLocked(uint64_t flow, int src, int dst, size_t words,
                            double sent_at, double receiver_now);

  /// True when no per-hop event is pending. Caller holds `mu()`.
  bool QueueEmptyLocked() const { return queue_.Empty(); }

  /// Processes the earliest event: serves one hop, schedules the next,
  /// and on the final hop records the flow's arrival. Returns the
  /// resolved flow key, or 0 for a mid-path hop. Undefined when the
  /// queue is empty. Caller holds `mu()`.
  uint64_t PumpOneLocked();

  /// Clears per-link busy clocks between measured phases; CHECK-fails if
  /// flows are still in flight (reset mid-collective is a bug).
  void Reset();

  /// True when no flow is in flight or awaiting consumption (end-of-run
  /// invariant, checked by `Cluster::Run`).
  bool Idle() const;

  /// Cumulative charge counters for one link (zero on closed-form
  /// fabrics). Thread-safe.
  LinkUsage link_usage(LinkId id) const;

  /// Attaches a span recorder: every pumped hop records one `kLink`
  /// occupancy span, in the engine's deterministic `(time, flow key)`
  /// order. Set while no workers run.
  void set_trace_recorder(TraceRecorder* recorder);

 private:
  const Topology& topology_;
  /// `topology_.closed_form_charge()`, cached: nothing to inject or pump.
  const bool closed_form_;
  mutable std::mutex mu_;

  EventQueue queue_;
  TraceRecorder* trace_recorder_ = nullptr;
  std::vector<LinkServer> links_;    // by LinkId; empty when closed-form
  std::vector<uint32_t> pair_seq_;   // per (src, dst); empty when closed-form
  std::unordered_map<uint64_t, Flow> flows_;       // in flight
  std::unordered_map<uint64_t, double> resolved_;  // arrival times
};

}  // namespace spardl

#endif  // SPARDL_DES_EVENT_ENGINE_H_
