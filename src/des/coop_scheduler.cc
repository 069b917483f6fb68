#include "des/coop_scheduler.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"
#include "des/event_engine.h"

namespace spardl {

namespace {

/// The scheduler whose fiber is running on this OS thread (null on a
/// plain thread). One level only: schedulers do not nest.
thread_local CoopScheduler* g_current_scheduler = nullptr;

}  // namespace

CoopScheduler::CoopScheduler() = default;
CoopScheduler::~CoopScheduler() = default;

CoopScheduler* CoopScheduler::Current() { return g_current_scheduler; }

void CoopScheduler::Run(int num_workers, EventEngine& engine,
                        const std::function<void(int)>& body) {
  SPARDL_CHECK(g_current_scheduler == nullptr)
      << "nested CoopScheduler::Run";
  SPARDL_CHECK_GE(num_workers, 1);
  engine_ = &engine;
  stats_ = SchedulerStats{};
  slots_.clear();
  slots_.resize(static_cast<size_t>(num_workers));
  ready_.clear();
  notified_.clear();
  notify_all_ = false;
  const size_t stack_bytes = FiberStackBytes();
  for (int rank = 0; rank < num_workers; ++rank) {
    slots_[static_cast<size_t>(rank)].fiber = std::make_unique<Fiber>(
        [rank, &body] { body(rank); }, stack_bytes);
    ready_.push_back(rank);
  }
  g_current_scheduler = this;
  int done = 0;
  while (done < num_workers) {
    // Run every ready worker once, in rank order. A worker returns
    // control only by blocking (state -> kWaiting) or finishing.
    for (const int rank : ready_) {
      WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
      current_ = rank;
      ++stats_.resumes;
      slot.fiber->Resume();
      current_ = -1;
      if (slot.fiber->finished()) {
        slot.state = State::kDone;
        ++done;
      }
    }
    ready_.clear();
    if (done >= num_workers) break;
    if (WakeNotifiedWaiters()) continue;
    if (PumpEngine()) continue;
    DiagnoseStall();
  }
  g_current_scheduler = nullptr;
  engine_ = nullptr;
  slots_.clear();
}

void CoopScheduler::Wait(const std::function<bool()>& pred,
                         const std::function<std::string()>& describe) {
  SPARDL_CHECK(g_current_scheduler == this && current_ >= 0)
      << "CoopScheduler::Wait outside a worker fiber";
  WorkerSlot& slot = slots_[static_cast<size_t>(current_)];
  for (;;) {
    ++stats_.predicate_evals;
    if (pred()) break;
    slot.state = State::kWaiting;
    slot.pred = &pred;
    slot.describe = &describe;
    slot.fiber->Yield();
    // Woken by the scheduler (state already back to kRunnable); re-check
    // the predicate like any condition wait.
    slot.pred = nullptr;
    slot.describe = nullptr;
  }
  slot.state = State::kRunnable;
}

void CoopScheduler::Notify(int rank) {
  WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
  // A worker that is not waiting checks its predicate on its next Wait.
  if (slot.state != State::kWaiting || slot.notified) return;
  slot.notified = true;
  notified_.push_back(rank);
}

void CoopScheduler::TryWake(int rank) {
  WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
  slot.notified = false;
  if (slot.state != State::kWaiting) return;
  ++stats_.predicate_evals;
  if (!(*slot.pred)()) return;
  slot.state = State::kRunnable;
  ready_.push_back(rank);
  ++stats_.wakeups;
}

bool CoopScheduler::WakeNotifiedWaiters() {
  // Predicates are evaluated lock-free: every fiber shares this OS
  // thread, so nothing mutates predicate state concurrently.
  if (notify_all_) {
    notify_all_ = false;
    for (int rank = 0; rank < static_cast<int>(slots_.size()); ++rank) {
      TryWake(rank);
    }
  } else {
    std::sort(notified_.begin(), notified_.end());
    for (const int rank : notified_) TryWake(rank);
  }
  notified_.clear();
  return !ready_.empty();
}

bool CoopScheduler::PumpEngine() {
  // Every worker is blocked, so this is exactly the engine's quiescent
  // cut — the same point the thread backend pumps at, hence the same
  // deterministic (time, key) event order. Pumping pauses as soon as a
  // resolution makes its receiver runnable: that worker may inject new,
  // earlier-keyed flows that must precede later queue entries. A
  // resolution can only change its receiver's predicate, so it is the
  // one worker to re-check.
  std::lock_guard<lockcheck::OrderedMutex> lock(engine_->mu());
  while (!engine_->QueueEmptyLocked()) {
    ++stats_.engine_pumps;
    const uint64_t resolved = engine_->PumpOneLocked();
    if (resolved == 0) continue;
    Notify(engine_->FlowDst(resolved));
    if (WakeNotifiedWaiters()) return true;
  }
  return false;
}

void CoopScheduler::DiagnoseStall() {
  // Only reached at a stall, so the full scan costs healthy runs nothing.
  for (size_t rank = 0; rank < slots_.size(); ++rank) {
    const WorkerSlot& slot = slots_[rank];
    SPARDL_CHECK(slot.state != State::kWaiting || !(*slot.pred)())
        << "lost wakeup: worker " << rank << " ready but never notified";
  }
  std::string detail;
  int shown = 0;
  for (size_t rank = 0; rank < slots_.size(); ++rank) {
    const WorkerSlot& slot = slots_[rank];
    if (slot.state != State::kWaiting) continue;
    if (++shown > 16) {
      detail += "\n  ...";
      break;
    }
    detail += "\n  worker " + std::to_string(rank) + ": " +
              (*slot.describe)();
  }
  SPARDL_CHECK(false)
      << "cooperative scheduler stalled: no runnable worker, no ready "
         "predicate, no pumpable event — collective deadlock?"
      << detail;
  std::abort();  // unreachable; keeps [[noreturn]] honest for the compiler
}

}  // namespace spardl
