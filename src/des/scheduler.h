#ifndef SPARDL_DES_SCHEDULER_H_
#define SPARDL_DES_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "des/fiber.h"

namespace spardl {

class EventEngine;

/// How the P SPMD workers of a run execute: the scheduler's carrier.
enum class ExecBackend {
  /// One OS thread per worker — the legacy backend, preempted by the
  /// kernel at any instruction.
  kThread,
  /// All workers as stackful fibers, run in rounds: each round resumes
  /// every ready fiber once, on the calling thread plus up to
  /// min(P, CPUs this process may use) − 1 helper carrier threads. No
  /// per-worker OS thread — the backend that scales one machine to
  /// P = 1024–4096 workers.
  kFiber,
};

/// What one run cost the simulator itself (not simulated time). Always
/// on: each counter is a plain increment, made under the engine mutex or
/// by the fiber scheduler's calling thread between rounds.
///
/// `engine_pumps` is a pure function of the SPMD program. The others
/// depend on the schedule on both carriers: on fibers, which workers a
/// round finds blocked depends on how its carriers interleaved them, and
/// so do the resumes, wakeups and predicate evaluations that follow
/// (and the "wake evals/msg" column derived from them).
struct SchedulerStats {
  /// Worker (re)starts: switches into a fiber, or a thread's start and
  /// each return from a parked wait.
  uint64_t resumes = 0;
  /// Wait predicates evaluated, by `Wait` itself and by the wake step.
  uint64_t predicate_evals = 0;
  /// Waiters moved back to runnable.
  uint64_t wakeups = 0;
  /// Engine events pumped (mid-path hops and final resolutions).
  uint64_t engine_pumps = 0;
  /// Fiber carrier only: rounds run, and those whose ready fibers were
  /// shared among more than one carrier thread.
  uint64_t rounds = 0;
  uint64_t parallel_rounds = 0;
  /// Fiber carrier only: carrier threads available to a round, the
  /// calling thread included (1 = every round runs inline). Accumulated
  /// stats keep the largest count instead of a sum over runs.
  uint64_t carriers = 0;

  SchedulerStats& operator+=(const SchedulerStats& other) {
    resumes += other.resumes;
    predicate_evals += other.predicate_evals;
    wakeups += other.wakeups;
    engine_pumps += other.engine_pumps;
    rounds += other.rounds;
    parallel_rounds += other.parallel_rounds;
    carriers = std::max(carriers, other.carriers);
    return *this;
  }
};

/// The one place SPMD workers block, are woken, are found quiescent and
/// have the event engine pumped for them, on either carrier
/// (`ExecBackend`):
///   - fibers: P stackful fibers run in rounds. A round resumes every
///     ready worker once, until it blocks or finishes; the calling OS
///     thread and up to min(P, CPUs in the affinity mask) − 1 helper
///     carrier threads take the round's ready workers from a shared
///     cursor in rank order. A round with one ready worker runs inline
///     on the calling thread. Waking, pumping and stall diagnosis happen
///     between rounds, on the calling thread alone;
///   - threads: one OS thread per worker, each parking on its own
///     condition variable.
///
/// Wake model. A waiter's predicate is re-evaluated only when something
/// *notifies* it (`Notify`, `NotifyAll`). On fibers the notified waiters
/// are re-checked at the wake step, between rounds, in rank order; on
/// threads `Notify` re-checks the waiter at once, under the engine
/// mutex, and signals only that waiter. When every live worker is
/// blocked — a fiber round ends and the wake step woke nobody, or the
/// last thread parks or exits — the scheduler runs the stall step: it
/// pumps the event engine in `(time, key)` order, waking the receiver of
/// each resolved flow, until some waiter is runnable. If the queue drains first, the
/// SPMD program is deadlocked: this is the one place a deadlock is
/// found. The scheduler then runs the deadlock hook, if one is set
/// (`Network` sets the protocol checker's diagnosis, which releases every
/// waiter to unwind), and otherwise aborts at once with every waiter's
/// diagnostic. Threads additionally keep a wall-clock bound per wait as a
/// backstop for a worker that never blocks.
///
/// Notify contract. The scheduler never polls a predicate it was not
/// told about, so whoever changes the state a waiter's predicate reads
/// must name that waiter. In `Network` a predicate can turn true in
/// exactly four ways:
///   - a flow resolves: the scheduler itself notifies the flow's `dst`
///     (stall step);
///   - a message lands on a closed-form fabric (flat): `Network::Post`
///     notifies `dst`;
///   - a barrier releases or a clock sync latches: the last arriver
///     calls `NotifyAll`;
///   - the deadlock hook latches a protocol diagnosis: the hook calls
///     `NotifyAll`.
/// A notify for a worker that is not waiting is dropped: the worker
/// checks its predicate itself when it next calls `Wait`. A missed
/// notify shows up at the next stall, where one full scan finds a
/// waiter whose predicate already holds and aborts with "lost wakeup"
/// instead of reporting a false deadlock.
///
/// Determinism. The engine is pumped only at all-workers-blocked cuts,
/// where the injected flow set is a pure function of the SPMD program,
/// and pumping pauses the moment a resolution releases a waiter (which
/// may inject new, earlier-keyed flows). So the event order, and every
/// simulated result, is the same on both carriers, at every fiber
/// carrier count and under every thread schedule; only who runs between
/// blocking points differs. The fiber interleaving itself is not
/// deterministic: a round's fibers run concurrently on its carriers, so
/// which waiters a round end finds notified, and the `SchedulerStats`
/// that follow from it, can vary from run to run as on threads. With one
/// carrier the rounds run in rank order on the calling thread and the
/// interleaving is deterministic.
///
/// Locking contract. `Wait`, `Notify` and `NotifyAll` are called with
/// the engine mutex held, and every predicate reads only state that
/// mutex guards. On fibers `Wait` releases the mutex across the switch
/// (the next fiber on the same carrier would self-deadlock re-acquiring
/// it). It is the simulator's only mutex, so no other lock can be held
/// across a wait and there is no lock order; rounds are handed to the
/// carriers through atomics. Between rounds every fiber is suspended and
/// each carrier has handed the round back (its release of the round's
/// count of running carriers, acquired by the calling thread), so the
/// wake step evaluates predicates without the mutex; only the stall step
/// takes it, to pump the engine.
class Scheduler {
 public:
  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Runs `body(rank)` for every rank in [0, num_workers) to completion
  /// on `carrier`, pumping `engine` (the fabric's event engine) at
  /// stalls. Returns once every worker has finished. Not reentrant.
  void Run(ExecBackend carrier, int num_workers, EventEngine& engine,
           const std::function<void(int)>& body);

  /// From worker `rank` (its own fiber or thread), with the engine mutex
  /// held via `lock`: blocks until `pred()` returns true. `pred` is
  /// re-evaluated only after a `Notify` naming this worker (see the class
  /// comment). On threads the wait aborts after `timeout_seconds` of wall
  /// time; `describe` is only invoked for that abort and the stall
  /// diagnostic. Both references must stay valid across the wait (they
  /// live in the caller's suspended frame).
  void Wait(int rank, std::unique_lock<std::mutex>& lock,
            const std::function<bool()>& pred, double timeout_seconds,
            const std::function<std::string()>& describe);

  /// Marks `rank`'s wait predicate as possibly true (dropped if `rank`
  /// is not waiting). Caller holds the engine mutex.
  void Notify(int rank);

  /// `Notify` for every worker (barrier release, protocol diagnosis).
  /// Caller holds the engine mutex.
  void NotifyAll();

  /// Sets what a deadlocked stall runs instead of aborting: with the
  /// engine mutex held, after the lost-wakeup check. The hook must make
  /// some waiter's predicate true and notify it; if none wakes, the stall
  /// aborts with the waiter dump as without a hook. Call before `Run`.
  void set_deadlock_hook(std::function<void()> hook) {
    deadlock_hook_ = std::move(hook);
  }

  /// Counters of the current (or, after `Run` returns, the last) run.
  const SchedulerStats& stats() const { return stats_; }

 private:
  enum class State : uint8_t { kRunnable, kWaiting, kDone };

  struct WorkerSlot {
    /// Fiber carrier only.
    std::unique_ptr<Fiber> fiber;
    State state = State::kRunnable;
    /// In `notified_` (dedupes repeated notifies within a round).
    bool notified = false;
    /// Valid while kWaiting; they point into the worker's suspended
    /// `Wait` frame.
    const std::function<bool()>* pred = nullptr;
    const std::function<std::string()>* describe = nullptr;
  };

  void RunFibers(const std::function<void(int)>& body);
  void RunThreads(const std::function<void(int)>& body);

  /// Fiber carrier, on each carrier of a round: resumes ready workers
  /// taken from the round's cursor until none is left.
  void RunRoundShare();

  /// Thread carrier: parks `rank` (already kWaiting) until a wake moves
  /// it back to runnable, running the stall step first if it is the
  /// last live worker to block.
  void Park(int rank, std::unique_lock<std::mutex>& lock,
            double timeout_seconds);

  /// Thread carrier: retires `rank` once its body returned. Its exit can
  /// leave every remaining worker blocked, so it may run the stall step.
  void Exit(int rank);

  /// Evaluates `rank`'s predicate if it is waiting, and on true moves it
  /// to runnable (queued on fibers, signalled on threads).
  void TryWake(int rank);

  /// Re-evaluates every notified waiter, in rank order, and clears the
  /// notify set (fibers; on threads `Notify` wakes at once and the set
  /// stays empty). Returns true if some live worker is runnable.
  bool WakeNotifiedWaiters();

  /// Every live worker is blocked: pump the engine until a waiter wakes,
  /// or diagnose the stall. Caller holds the engine mutex.
  void Stall();

  /// Pumps engine events until a resolved flow wakes its receiver (or
  /// the queue drains). Returns true if a waiter is now runnable.
  bool PumpEngine();

  /// The stall is a deadlock. Aborts with "lost wakeup" if some waiter's
  /// predicate already holds (a missed `Notify`); else runs the deadlock
  /// hook and returns once it woke a waiter; else aborts with the
  /// waiter dump.
  void DiagnoseStall();

  ExecBackend carrier_ = ExecBackend::kThread;
  std::vector<WorkerSlot> slots_;
  /// Thread carrier: one condition variable per worker.
  std::unique_ptr<std::condition_variable[]> parked_;
  /// Fiber carrier: runnable workers in rank order; only the wake step
  /// appends, so the carriers can walk it while fibers run.
  std::vector<int> ready_;
  /// Fiber carrier: next index of `ready_` a carrier takes this round.
  std::atomic<size_t> cursor_{0};
  /// Fiber carrier: workers notified since the last wake step (unsorted,
  /// deduped).
  std::vector<int> notified_;
  bool notify_all_ = false;
  int live_ = 0;     // workers not finished
  int blocked_ = 0;  // workers in kWaiting
  SchedulerStats stats_;
  std::function<void()> deadlock_hook_;
  EventEngine* engine_ = nullptr;
};

}  // namespace spardl

#endif  // SPARDL_DES_SCHEDULER_H_
