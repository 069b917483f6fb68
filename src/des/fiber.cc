#include "des/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <utility>

#include "common/logging.h"

// ASan needs to be told about stack switches or it poisons/flags frames
// on the inactive stack. TSan has no ucontext support at all — the
// cluster layer pins the thread backend there (see Cluster) — so only
// the ASan annotations are wired here.
#if defined(__SANITIZE_ADDRESS__)
#define SPARDL_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPARDL_FIBER_ASAN 1
#endif
#endif

#ifdef SPARDL_FIBER_ASAN
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
}
#endif

namespace spardl {

namespace {

/// The fiber running on this OS thread (null = the thread's own stack).
/// Also how `Trampoline` learns which fiber it belongs to: `makecontext`
/// cannot portably smuggle a pointer argument, but `Resume` always sets
/// this before switching in.
thread_local Fiber* g_current_fiber = nullptr;

size_t PageBytes() {
  static const auto bytes =
      static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return bytes;
}

}  // namespace

Fiber::Fiber(std::function<void()> fn) : fn_(std::move(fn)) {
  const size_t page = PageBytes();
  // Round the stack up to whole pages and prepend one guard page.
  stack_bytes_ = (kFiberStackBytes + page - 1) / page * page;
  map_bytes_ = stack_bytes_ + page;
  void* map = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  SPARDL_CHECK(map != MAP_FAILED)
      << "fiber stack mmap(" << map_bytes_ << ") failed";
  map_ = static_cast<char*>(map);
  SPARDL_CHECK(::mprotect(map_, page, PROT_NONE) == 0)
      << "fiber guard page mprotect failed";
}

Fiber::~Fiber() {
  SPARDL_CHECK(!started_ || finished_)
      << "fiber destroyed while suspended mid-run";
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

Fiber* Fiber::Current() { return g_current_fiber; }

void Fiber::StartSwitchInto() {
#ifdef SPARDL_FIBER_ASAN
  __sanitizer_start_switch_fiber(&caller_fake_stack_, map_ + PageBytes(),
                                 stack_bytes_);
#endif
}

void Fiber::StartSwitchOutOf() {
#ifdef SPARDL_FIBER_ASAN
  // A finishing fiber passes null so ASan releases its fake stack.
  __sanitizer_start_switch_fiber(
      finished_ ? nullptr : &fiber_fake_stack_, caller_stack_bottom_,
      caller_stack_size_);
#endif
}

void Fiber::FinishSwitch(void* restored_fake_stack, bool record_caller) {
#ifdef SPARDL_FIBER_ASAN
  // On the first switch in, ASan reports the stack we came from — the
  // carrier thread's — whose bounds we could not know otherwise; they
  // are what every switch back out must announce.
  __sanitizer_finish_switch_fiber(
      restored_fake_stack, record_caller ? &caller_stack_bottom_ : nullptr,
      record_caller ? &caller_stack_size_ : nullptr);
#else
  (void)restored_fake_stack;
  (void)record_caller;
#endif
}

void Fiber::Trampoline() {
  Fiber* self = g_current_fiber;
  self->FinishSwitch(nullptr, /*record_caller=*/true);
  self->fn_();
  self->finished_ = true;
  self->StartSwitchOutOf();
  ::swapcontext(&self->context_, &self->caller_);
  // Unreachable: a finished fiber is never resumed.
  SPARDL_CHECK(false) << "finished fiber resumed";
}

void Fiber::Resume() {
  SPARDL_CHECK(!finished_) << "Resume on a finished fiber";
  SPARDL_CHECK(g_current_fiber == nullptr)
      << "nested fiber resume (fibers do not nest)";
  if (!started_) {
    started_ = true;
    SPARDL_CHECK(::getcontext(&context_) == 0);
    context_.uc_stack.ss_sp = map_ + PageBytes();
    context_.uc_stack.ss_size = stack_bytes_;
    context_.uc_link = nullptr;
    ::makecontext(&context_, &Fiber::Trampoline, 0);
  }
  g_current_fiber = this;
  StartSwitchInto();
  SPARDL_CHECK(::swapcontext(&caller_, &context_) == 0);
  // Back on the carrier stack: the fiber yielded or finished.
  FinishSwitch(caller_fake_stack_, /*record_caller=*/false);
  g_current_fiber = nullptr;
}

void Fiber::Yield() {
  SPARDL_CHECK(g_current_fiber == this)
      << "Yield outside the running fiber";
  StartSwitchOutOf();
  SPARDL_CHECK(::swapcontext(&context_, &caller_) == 0);
  // Resumed: re-establish the fiber's sanitizer stack context.
  FinishSwitch(fiber_fake_stack_, /*record_caller=*/false);
}

}  // namespace spardl
