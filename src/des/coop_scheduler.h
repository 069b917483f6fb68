#ifndef SPARDL_DES_COOP_SCHEDULER_H_
#define SPARDL_DES_COOP_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "des/fiber.h"

namespace spardl {

class EventEngine;

/// What one cooperative run cost the simulator itself (not simulated
/// time). Always on: each counter is a plain increment on the carrier
/// thread.
struct SchedulerStats {
  /// Switches into a worker fiber.
  uint64_t resumes = 0;
  /// Wait predicates evaluated, by `Wait` itself and by the wake step.
  uint64_t predicate_evals = 0;
  /// Waiters moved back to runnable.
  uint64_t wakeups = 0;
  /// Engine events pumped (mid-path hops and final resolutions).
  uint64_t engine_pumps = 0;

  SchedulerStats& operator+=(const SchedulerStats& other) {
    resumes += other.resumes;
    predicate_evals += other.predicate_evals;
    wakeups += other.wakeups;
    engine_pumps += other.engine_pumps;
    return *this;
  }
};

/// The cooperative execution backend: P SPMD workers as stackful fibers
/// multiplexed on the *calling* OS thread, replacing thread-per-worker
/// execution for large clusters (P = 1024–4096 on one machine).
///
/// Scheduling model. Each round runs the ready workers in rank order; a
/// worker keeps the carrier thread until it blocks (`Wait`) or finishes.
/// Then the scheduler (1) re-evaluates the predicates of the waiters
/// that were *notified* since the last round, in rank order, and wakes
/// those that hold; if none does, it (2) pumps the event engine, waking
/// the receiver of each resolved flow, until some waiter is ready. If
/// neither helps, the SPMD program is deadlocked and the scheduler
/// aborts immediately with every waiter's diagnostic — the cooperative
/// analogue of the thread backend's wall-clock watchdog, minus the 120 s
/// wait.
///
/// Notify contract. The scheduler never polls a predicate it was not
/// told about, so whoever changes the state a waiter's predicate reads
/// must name that waiter. In `Network` a predicate can turn true in
/// exactly four ways:
///   - a flow resolves: the scheduler itself notifies the flow's `dst`
///     (`PumpEngine`);
///   - a message lands on a closed-form fabric (flat):
///     `EventEngine::InjectFlowLocked` notifies `dst`;
///   - a barrier releases or a clock sync latches: the last arriver
///     calls `EventEngine::NotifyAllLocked`;
///   - a protocol violation interrupts the run: `InterruptWaiters` calls
///     `EventEngine::NotifyAllLocked`.
/// A notify for a worker that is not waiting is dropped: the worker
/// checks its predicate itself when it next calls `Wait`. A missed
/// notify shows up at the next stall, where one full scan finds a
/// waiter whose predicate already holds and aborts with "lost wakeup"
/// instead of reporting a false deadlock.
///
/// Determinism. The carrier is one OS thread, so the interleaving is a
/// pure function of the SPMD program: no wall-clock or scheduler
/// dependence anywhere. During a round, fibers change only shared state,
/// never each other's run state; only the wake step does. So notifying
/// wakes exactly the waiters a full scan would, in the same rank order.
/// Simulated results are identical to the thread backend's because
/// blocking points and the engine's `(time, key)` event order are
/// unchanged — only who runs between them differs.
///
/// Locking contract. Fibers share the carrier thread, so a mutex
/// acquired by one fiber and held across a `Wait` would self-deadlock
/// the next fiber: callers must release every lock before waiting
/// (`Network`'s wait sites unlock, `Wait`, relock). That same
/// single-thread property is what lets the scheduler evaluate wake
/// predicates without taking the locks that guard their state.
class CoopScheduler {
 public:
  CoopScheduler();
  ~CoopScheduler();

  CoopScheduler(const CoopScheduler&) = delete;
  CoopScheduler& operator=(const CoopScheduler&) = delete;

  /// Runs `body(rank)` for every rank in [0, num_workers) to
  /// completion on fibers, pumping `engine` (the fabric's event engine)
  /// at stalls. Not reentrant.
  void Run(int num_workers, EventEngine& engine,
           const std::function<void(int)>& body);

  /// From inside a worker fiber: cooperatively blocks until `pred()`
  /// returns true. `pred` is re-evaluated only after a `Notify` naming
  /// this worker (see the class comment). `describe` is only invoked
  /// for the deadlock diagnostic. The caller must hold no locks; both
  /// references must stay valid across the wait (they live in the
  /// caller's suspended frame).
  void Wait(const std::function<bool()>& pred,
            const std::function<std::string()>& describe);

  /// Marks `rank`'s wait predicate as possibly true; the next wake step
  /// re-evaluates it. Called from a worker fiber after changing state
  /// that `rank` may be waiting on.
  void Notify(int rank);

  /// `Notify` for every worker (barrier release, interrupts).
  void NotifyAll() { notify_all_ = true; }

  /// Counters of the current (or, after `Run` returns, the last) run.
  const SchedulerStats& stats() const { return stats_; }

  /// The scheduler driving the calling thread's current fiber, or null
  /// on a plain OS thread — the branch every blocking site takes
  /// between cooperative yield and condition-variable wait.
  static CoopScheduler* Current();

 private:
  enum class State : uint8_t { kRunnable, kWaiting, kDone };

  struct WorkerSlot {
    std::unique_ptr<Fiber> fiber;
    State state = State::kRunnable;
    /// In `notified_` (dedupes repeated notifies within a round).
    bool notified = false;
    /// Valid while kWaiting; they point into the fiber's suspended
    /// `Wait` frame.
    const std::function<bool()>* pred = nullptr;
    const std::function<std::string()>* describe = nullptr;
  };

  /// Evaluates `rank`'s predicate if it is waiting, and on true moves it
  /// to runnable and appends it to `ready_`.
  void TryWake(int rank);

  /// Re-evaluates every notified waiter, in rank order, and clears the
  /// notify set. Returns true if any worker woke.
  bool WakeNotifiedWaiters();

  /// Pumps engine events until a resolved flow wakes its receiver (or
  /// the queue drains). Returns true if a waiter is now runnable.
  bool PumpEngine();

  /// Aborts with "lost wakeup" if some waiter's predicate already holds
  /// (a missed `Notify`), else with the deadlock waiter dump.
  [[noreturn]] void DiagnoseStall();

  std::vector<WorkerSlot> slots_;
  /// Runnable workers in rank order; only the wake step appends, so the
  /// round loop can walk it while fibers run.
  std::vector<int> ready_;
  /// Workers notified since the last wake step (unsorted, deduped).
  std::vector<int> notified_;
  bool notify_all_ = false;
  SchedulerStats stats_;
  EventEngine* engine_ = nullptr;
  int current_ = -1;  // rank of the running fiber, -1 in the scheduler
};

}  // namespace spardl

#endif  // SPARDL_DES_COOP_SCHEDULER_H_
