#include "des/scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "des/event_engine.h"

namespace spardl {

Scheduler::Scheduler() = default;
Scheduler::~Scheduler() = default;

void Scheduler::Run(ExecBackend carrier, int num_workers, EventEngine& engine,
                    const std::function<void(int)>& body) {
  SPARDL_CHECK(engine_ == nullptr) << "nested Scheduler::Run";
  SPARDL_CHECK_GE(num_workers, 1);
  carrier_ = carrier;
  engine_ = &engine;
  stats_ = SchedulerStats{};
  slots_.clear();
  slots_.resize(static_cast<size_t>(num_workers));
  ready_.clear();
  notified_.clear();
  notify_all_ = false;
  // Every worker is live before any of them runs: a worker that blocked
  // early must not look like the last one and pump ahead of a
  // not-yet-started worker's earlier-keyed flows.
  live_ = num_workers;
  blocked_ = 0;
  if (carrier == ExecBackend::kFiber) {
    RunFibers(body);
  } else {
    RunThreads(body);
  }
  engine_ = nullptr;
  slots_.clear();
}

void Scheduler::RunFibers(const std::function<void(int)>& body) {
  const int num_workers = static_cast<int>(slots_.size());
  for (int rank = 0; rank < num_workers; ++rank) {
    slots_[static_cast<size_t>(rank)].fiber = std::make_unique<Fiber>(
        [rank, &body] { body(rank); });
    ready_.push_back(rank);
  }
  while (live_ > 0) {
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
        --live_;
      }
    }
    ready_.clear();
    if (live_ == 0) break;
    // Every live fiber is blocked. The wake step reads predicate state
    // lock-free: every fiber runs on this one OS thread and all of them
    // are suspended with the engine mutex released. Only pumping takes it.
    if (WakeNotifiedWaiters()) continue;
    std::lock_guard<std::mutex> lock(engine_->mu());
    Stall();
  }
}

void Scheduler::RunThreads(const std::function<void(int)>& body) {
  const size_t num_workers = slots_.size();
  parked_ = std::make_unique<std::condition_variable[]>(num_workers);
  stats_.resumes += num_workers;
  std::vector<std::thread> threads;
  threads.reserve(num_workers);
  for (int rank = 0; rank < static_cast<int>(num_workers); ++rank) {
    threads.emplace_back([this, rank, &body] {
      body(rank);
      Exit(rank);
    });
  }
  for (std::thread& thread : threads) thread.join();
  parked_.reset();
}

void Scheduler::Wait(int rank, std::unique_lock<std::mutex>& lock,
                     const std::function<bool()>& pred,
                     double timeout_seconds,
                     const std::function<std::string()>& describe) {
  SPARDL_CHECK(engine_ != nullptr && rank >= 0 &&
               rank < static_cast<int>(slots_.size()) &&
               (carrier_ == ExecBackend::kThread || rank == current_))
      << "Scheduler::Wait outside worker " << rank << " of a run";
  WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
  for (;;) {
    ++stats_.predicate_evals;
    if (pred()) return;
    slot.state = State::kWaiting;
    slot.pred = &pred;
    slot.describe = &describe;
    ++blocked_;
    if (carrier_ == ExecBackend::kFiber) {
      lock.unlock();
      slot.fiber->Yield();
      lock.lock();
    } else {
      Park(rank, lock, timeout_seconds);
    }
    // Woken (state already back to kRunnable); re-check the predicate
    // like any condition wait.
    slot.pred = nullptr;
    slot.describe = nullptr;
  }
}

void Scheduler::Park(int rank, std::unique_lock<std::mutex>& lock,
                     double timeout_seconds) {
  // The last worker to block runs the stall step for everyone.
  if (blocked_ == live_) Stall();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  const WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
  std::condition_variable& cv = parked_[static_cast<size_t>(rank)];
  while (slot.state == State::kWaiting) {
    const bool timed_out =
        cv.wait_until(lock, deadline) == std::cv_status::timeout;
    SPARDL_CHECK(!timed_out || slot.state != State::kWaiting)
        << (*slot.describe)() << " timed out after " << timeout_seconds
        << "s of wall time — collective deadlock?";
  }
  ++stats_.resumes;
}

void Scheduler::Exit(int rank) {
  std::lock_guard<std::mutex> lock(engine_->mu());
  slots_[static_cast<size_t>(rank)].state = State::kDone;
  --live_;
  if (live_ > 0 && blocked_ == live_) Stall();
}

void Scheduler::Notify(int rank) {
  if (carrier_ == ExecBackend::kThread) {
    TryWake(rank);
    return;
  }
  WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
  // A worker that is not waiting checks its predicate on its next Wait.
  if (slot.state != State::kWaiting || slot.notified) return;
  slot.notified = true;
  notified_.push_back(rank);
}

void Scheduler::NotifyAll() {
  if (carrier_ == ExecBackend::kFiber) {
    notify_all_ = true;
    return;
  }
  for (int rank = 0; rank < static_cast<int>(slots_.size()); ++rank) {
    TryWake(rank);
  }
}

void Scheduler::TryWake(int rank) {
  WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
  slot.notified = false;
  if (slot.state != State::kWaiting) return;
  ++stats_.predicate_evals;
  if (!(*slot.pred)()) return;
  slot.state = State::kRunnable;
  --blocked_;
  ++stats_.wakeups;
  if (carrier_ == ExecBackend::kFiber) {
    ready_.push_back(rank);
  } else {
    parked_[static_cast<size_t>(rank)].notify_one();
  }
}

bool Scheduler::WakeNotifiedWaiters() {
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
  return blocked_ < live_;
}

void Scheduler::Stall() {
  if (!PumpEngine()) DiagnoseStall();
}

bool Scheduler::PumpEngine() {
  // Every live worker is blocked, so this is a quiescent cut: the
  // pending flow set is scheduling-independent and the earliest event is
  // safe to process. Pumping pauses as soon as a resolution makes its
  // receiver runnable: that worker may inject new, earlier-keyed flows
  // that must precede later queue entries. A resolution can only change
  // its receiver's predicate, so it is the one worker to re-check.
  while (!engine_->QueueEmptyLocked()) {
    ++stats_.engine_pumps;
    const uint64_t resolved = engine_->PumpOneLocked();
    if (resolved == 0) continue;
    Notify(engine_->FlowDst(resolved));
    if (WakeNotifiedWaiters()) return true;
  }
  return false;
}

void Scheduler::DiagnoseStall() {
  // Only reached at a stall, so the full scan costs healthy runs nothing.
  for (size_t rank = 0; rank < slots_.size(); ++rank) {
    const WorkerSlot& slot = slots_[rank];
    SPARDL_CHECK(slot.state != State::kWaiting || !(*slot.pred)())
        << "lost wakeup: worker " << rank << " ready but never notified";
  }
  if (deadlock_hook_) {
    deadlock_hook_();
    if (WakeNotifiedWaiters()) return;
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
      << "scheduler stalled: no runnable worker, no ready predicate, no "
         "pumpable event — collective deadlock?"
      << detail;
}

}  // namespace spardl
