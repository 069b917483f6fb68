#ifndef SPARDL_SIMNET_NETWORK_H_
#define SPARDL_SIMNET_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "des/event_engine.h"
#include "des/scheduler.h"
#include "simnet/cost_model.h"
#include "sparse/sparse_vector.h"
#include "topo/topology.h"

namespace spardl {

class ProtocolChecker;

/// Message payloads the simulated network can carry.
///
/// A closed variant (rather than opaque bytes) keeps the simulator type-safe
/// and avoids serialisation costs that would pollute wall-clock timing; the
/// wire size is still charged from the logical encoding (COO entry = 2
/// words, dense float = 1 word).
using Payload =
    std::variant<SparseVector, std::vector<SparseVector>, std::vector<float>,
                 std::vector<uint32_t>, double, int64_t>;

/// Number of 4-byte wire words `payload` occupies.
size_t PayloadWords(const Payload& payload);

/// A message in flight.
struct Packet {
  Payload payload;
  size_t words = 0;
  /// Sender's simulated clock when the send was issued.
  double sent_at = 0.0;
  int tag = 0;
  /// The engine's flow key, assigned at `Post` time (0 on closed-form
  /// fabrics, where the charge is computed at `Recv`).
  uint64_t flow = 0;
};

/// The in-process interconnect: one FIFO mailbox per (src, dst) pair.
///
/// Thread-safe; each of the P workers owns one endpoint (see `Comm`).
///
/// Charging: the network owns one `EventEngine`, which charges every
/// fabric. Flows are injected at `Post` time and resolved in
/// `(time, flow key)` order; closed-form fabrics (flat) inject nothing and
/// are charged in closed form at `Recv`.
///
/// Waiting: every blocking operation (receive, barrier, clock sync) holds
/// the engine's single mutex and waits through the `Scheduler` running
/// the workers (attached by `Cluster::Run` for the length of a run), which
/// pumps the engine when every worker is blocked and aborts with a waiter
/// dump when nothing can progress. The network keeps the scheduler's
/// notify contract: a closed-form `Post` notifies `dst`, and a barrier
/// release, clock-sync latch or protocol diagnosis notifies everyone. On
/// threads each wait is also bounded by `recv_timeout_seconds` of *wall*
/// time, a backstop that aborts the process. A wait with no scheduler
/// attached (outside `Cluster::Run`) fails a CHECK.
///
/// Protocol checking: with a `ProtocolChecker` attached, every operation
/// reports to it inside its own critical section, and the network installs
/// the checker's deadlock diagnosis as the scheduler's stall hook. The
/// engine mutex is the only mutex in the simulator, so there is no lock
/// order to keep.
class Network {
 public:
  /// Flat crossbar shorthand: the paper's alpha-beta model.
  Network(int size, CostModel cost_model);

  /// Any fabric: message costs are delegated to `topology` (which fixes the
  /// worker count).
  explicit Network(std::unique_ptr<Topology> topology);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int size() const { return size_; }

  /// The topology's reference alpha-beta model (exact per-message cost on
  /// flat; the per-hop budget elsewhere).
  const CostModel& cost_model() const { return topology_->base_cost(); }

  Topology& topology() { return *topology_; }
  const Topology& topology() const { return *topology_; }

  void set_recv_timeout_seconds(double seconds) {
    recv_timeout_seconds_ = seconds;
  }

  /// Heterogeneous-cluster support (the paper's §VI extension): scales the
  /// cost of `rank`'s receive path by `factor` (>= 1 models a straggler
  /// with a slower NIC/placement). Set before running workers. Folds into
  /// the topology's per-node link scaling; on the default flat fabric this
  /// is exactly the historical whole-message scaling.
  void SetWorkerSlowdown(int rank, double factor);
  double WorkerSlowdown(int rank) const { return topology_->NodeScale(rank); }

  /// The event engine charging this fabric. The scheduler pumps through
  /// it (`Scheduler::Run`).
  EventEngine& event_engine() { return engine_; }

  /// Attaches the scheduler running the workers; every blocking operation
  /// waits through it. With a protocol checker attached, also installs the
  /// scheduler's deadlock hook. Call while no workers run (`Cluster::Run`
  /// attaches its scheduler for the length of the run, then detaches it
  /// with null).
  void set_scheduler(Scheduler* scheduler);

  /// Attaches a span recorder to the engine (per-link occupancy spans and
  /// flow records). Call while no worker threads run; the recorder must
  /// outlive them. `Cluster::EnableTracing` does this.
  void AttachTraceRecorder(TraceRecorder* recorder) {
    engine_.set_trace_recorder(recorder);
  }

  /// Cumulative charge counters for one link. Zero on closed-form fabrics
  /// (flat never touches link state).
  LinkUsage link_usage(LinkId id) const { return engine_.link_usage(id); }

  /// Deposits a packet into the (src, dst) mailbox and injects its flow
  /// into the engine.
  void Post(int src, int dst, Packet packet);

  /// `Comm::MarkIteration`: advances `rank`'s iteration label in the
  /// protocol checker (no-op without one).
  void MarkIteration(int rank);

  /// A received packet plus the receiver's advanced clock.
  struct Delivered {
    Packet packet;
    double delivery_time = 0.0;
  };

  /// Blocks until a packet with `tag` from `src` to `dst` is available
  /// and its arrival time is resolved, removes it and returns it with its
  /// delivery time at a receiver whose clock reads `receiver_now`.
  /// Packets with the same tag are delivered FIFO.
  Delivered RecvPacket(int src, int dst, int tag, double receiver_now);

  /// Rewinds the per-link busy clocks and usage counters between measured
  /// phases; worker clocks rewind separately.
  void ResetSimState() { engine_.Reset(); }

  /// True when no flow is in flight or awaiting consumption (end-of-run
  /// invariant).
  bool SimIdle() const { return engine_.Idle(); }

  /// Reusable rendezvous for all `size` workers (generation-counted, so
  /// back-to-back barriers cannot mix up their waiters); `rank` is the
  /// caller.
  void BarrierWait(int rank);

  /// Publishes `value` to a per-rank slot and returns the max over all
  /// ranks once everyone has published (used to align simulated clocks).
  double MaxClockSync(int rank, double value);

  /// True if every mailbox is empty (test hook: no stray messages).
  bool AllMailboxesEmpty() const;

  /// Attaches the SPMD protocol verifier (see `simnet/protocol_check.h`).
  /// Once attached, every blocking wait also watches `checker->failed()`
  /// and throws `ProtocolViolation` instead of waiting out a diagnosed
  /// divergence. Call while no workers run, before `set_scheduler`
  /// (`Cluster::EnableProtocolCheck` does).
  void set_protocol_checker(ProtocolChecker* checker) {
    protocol_ = checker;
  }

 private:
  using Mailbox = std::deque<Packet>;
  using Lock = std::unique_lock<std::mutex>;

  /// Blocks worker `rank` until `pred()` holds, through the attached
  /// scheduler (CHECK-fails with none attached). `describe` names the
  /// wait in diagnostics. Caller holds the engine mutex via `lock`.
  void WaitLocked(int rank, Lock& lock, const std::function<bool()>& pred,
                  const std::function<std::string()>& describe);

  /// Notifies every waiter (no-op with no scheduler attached). Caller
  /// holds the engine mutex.
  void NotifyAllLocked();

  /// Throws `ProtocolViolation` when the attached checker has diagnosed a
  /// divergence (no-op otherwise). Called at every wait site.
  void ThrowIfInterrupted() const;

  /// True once the attached checker has diagnosed a divergence. Read by
  /// wait predicates.
  bool interrupted() const;

  /// The scheduler's deadlock hook: latches the checker's diagnosis from
  /// the real mailboxes and notifies every waiter so all unwind. Caller
  /// holds the engine mutex.
  void DiagnoseDeadlockLocked();

  /// Index (src * P + dst) of the first non-empty mailbox, or -1 when
  /// every mailbox is empty. Caller holds the engine mutex.
  ptrdiff_t FirstQueuedLocked() const;

  /// The (src, dst) mailbox, created on first touch. Caller holds the
  /// engine mutex. Mailboxes are lazy because the pair table is P^2: at
  /// P = 4096 eager construction is ~16.7M boxes (gigabytes, and most
  /// pairs never talk — SparDL's dense collectives are
  /// ring/doubling-shaped).
  Mailbox& BoxForLocked(int src, int dst);

  std::unique_ptr<Topology> topology_;
  /// Charges every message; its mutex also guards the mailboxes and the
  /// barrier/sync state below.
  EventEngine engine_;
  Scheduler* scheduler_ = nullptr;
  ProtocolChecker* protocol_ = nullptr;
  int size_;
  double recv_timeout_seconds_ = 120.0;
  /// P^2 lazily-populated slots (see `BoxForLocked`); null until first
  /// touch.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Reusable barrier (generation-counted; std::barrier needs a fixed
  // completion type, a hand-rolled one is simpler to reuse).
  int barrier_waiting_ = 0;
  uint64_t barrier_generation_ = 0;

  // Max-clock sync state.
  int sync_count_ = 0;
  double sync_max_ = 0.0;
  double sync_result_ = 0.0;
  uint64_t sync_generation_ = 0;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_NETWORK_H_
