#ifndef SPARDL_DES_FIBER_H_
#define SPARDL_DES_FIBER_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace spardl {

/// Fiber stack size in bytes. Worker functions keep their bulk data on
/// the heap (SparseVector and friends), so a quarter-megabyte covers the
/// deepest algorithm call chains with generous margin; at P = 4096 the
/// total is 1 GiB of *virtual* address space, of which only the pages a
/// worker actually touches become resident.
inline constexpr size_t kFiberStackBytes = 256 * 1024;

/// A stackful coroutine over `ucontext`: the execution primitive of the
/// cooperative cluster backend (see `Scheduler`).
///
/// One fiber runs `fn` on its own guard-paged stack. `Resume` switches
/// the calling OS thread into the fiber and returns when the fiber calls
/// `Yield` or when `fn` returns; all resumes of one fiber must come from
/// the same OS thread (the scheduler's carrier thread). Under ASan every
/// switch is bracketed with the sanitizer fiber annotations, so stack
/// poisoning follows the active stack instead of flagging cross-stack
/// reads.
class Fiber {
 public:
  /// Creates a suspended fiber; `fn` starts on the first `Resume`. The
  /// `kFiberStackBytes` stack is `mmap`ed with an inaccessible low guard
  /// page, so overflow faults loudly instead of corrupting a neighbouring
  /// fiber's stack.
  explicit Fiber(std::function<void()> fn);

  /// The fiber must be finished (or never started) when destroyed:
  /// unwinding a suspended stack is not supported.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches into the fiber until it yields or finishes. Must not be
  /// called from inside any fiber (no nesting) or after `finished()`.
  void Resume();

  /// From inside the fiber: suspends and returns control to `Resume`'s
  /// caller. The next `Resume` continues right after this call.
  void Yield();

  /// True once `fn` has returned. A finished fiber cannot be resumed.
  bool finished() const { return finished_; }

  /// The fiber currently running on this OS thread, or null when the
  /// thread is on its own stack.
  static Fiber* Current();

 private:
  static void Trampoline();

  /// Sanitizer bookkeeping around a context switch; no-ops outside ASan.
  void StartSwitchInto();   // caller stack -> this fiber's stack
  void StartSwitchOutOf();  // this fiber's stack -> caller stack
  void FinishSwitch(void* restored_fake_stack, bool record_caller);

  std::function<void()> fn_;
  size_t stack_bytes_;
  char* map_ = nullptr;  // guard page + stack
  size_t map_bytes_ = 0;
  ucontext_t context_{};
  ucontext_t caller_{};
  bool started_ = false;
  bool finished_ = false;

  // ASan fiber-switch state: each side's fake-stack handle, plus the
  // caller stack's bounds (reported by the first switch in, reused when
  // switching back out).
  void* caller_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* caller_stack_bottom_ = nullptr;
  size_t caller_stack_size_ = 0;
};

}  // namespace spardl

#endif  // SPARDL_DES_FIBER_H_
