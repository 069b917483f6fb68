#include "simnet/network.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "des/coop_scheduler.h"
#include "simnet/protocol_check.h"
#include "topo/topologies.h"

namespace spardl {

namespace {

// The cooperative backend re-checks a waiter only when told to (see
// CoopScheduler's notify contract). Both are no-ops on plain threads,
// which wait on condition variables instead.
void NotifyFiber(int rank) {
  if (CoopScheduler* scheduler = CoopScheduler::Current()) {
    scheduler->Notify(rank);
  }
}

void NotifyAllFibers() {
  if (CoopScheduler* scheduler = CoopScheduler::Current()) {
    scheduler->NotifyAll();
  }
}

}  // namespace

size_t PayloadWords(const Payload& payload) {
  struct Visitor {
    size_t operator()(const SparseVector& v) const { return v.WireWords(); }
    size_t operator()(const std::vector<SparseVector>& parts) const {
      size_t words = 0;
      for (const SparseVector& p : parts) words += p.WireWords();
      return words;
    }
    size_t operator()(const std::vector<float>& v) const { return v.size(); }
    size_t operator()(const std::vector<uint32_t>& v) const {
      return v.size();
    }
    size_t operator()(double) const { return 1; }
    size_t operator()(int64_t) const { return 1; }
  };
  return std::visit(Visitor{}, payload);
}

Network::Network(int size, CostModel cost_model)
    : Network(std::make_unique<FlatTopology>(size, cost_model)) {}

Network::Network(std::unique_ptr<Topology> topology)
    : topology_(std::move(topology)), size_(topology_->num_workers()) {
  SPARDL_CHECK_GE(size_, 1);
  // Closed-form fabrics (flat) have no link state to order, so both
  // engines charge them identically at Recv time — no event engine.
  if (topology_->charge_engine() == ChargeEngine::kEventOrdered &&
      !topology_->closed_form_charge()) {
    engine_ = std::make_unique<EventEngine>(*topology_);
  }
  // Value-initialized: every slot starts null; boxes appear on first
  // touch (see BoxFor). The slot table itself is P^2 * 8 bytes — 134MB
  // at P = 4096 — versus gigabytes for eager Mailbox construction.
  mailboxes_ = std::make_unique<std::atomic<Mailbox*>[]>(MailboxCount());
}

Network::~Network() {
  const size_t count = MailboxCount();
  for (size_t i = 0; i < count; ++i) {
    delete mailboxes_[i].load(std::memory_order_acquire);
  }
}

Network::Mailbox& Network::BoxFor(int src, int dst) {
  std::atomic<Mailbox*>& slot =
      mailboxes_[static_cast<size_t>(src) * static_cast<size_t>(size_) +
                 static_cast<size_t>(dst)];
  Mailbox* box = slot.load(std::memory_order_acquire);
  if (box == nullptr) {
    auto fresh = std::make_unique<Mailbox>();
    if (slot.compare_exchange_strong(box, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      box = fresh.release();
    }
    // On CAS failure `box` already holds the winner's pointer and
    // `fresh` frees the loser.
  }
  return *box;
}

void Network::AttachTraceRecorder(TraceRecorder* recorder) {
  if (engine_) {
    // Event mode charges links in PumpOneLocked; the topology's charge
    // loop never runs, so the engine is the one recording surface.
    engine_->set_trace_recorder(recorder);
    return;
  }
  topology_->set_trace_recorder(recorder);
}

LinkUsage Network::link_usage(LinkId id) const {
  return engine_ ? engine_->link_usage(id) : topology_->link_usage(id);
}

void Network::SetWorkerSlowdown(int rank, double factor) {
  SPARDL_CHECK(rank >= 0 && rank < size_);
  SPARDL_CHECK_GT(factor, 0.0);
  topology_->SetNodeScale(rank, factor);
}

bool Network::interrupted() const {
  return protocol_ != nullptr && protocol_->failed();
}

void Network::ThrowIfInterrupted() const {
  if (interrupted()) throw ProtocolViolation(protocol_->status());
}

void Network::InterruptWaiters() {
  NotifyAllFibers();
  if (engine_) {
    std::lock_guard<lockcheck::OrderedMutex> lock(engine_->mu());
    engine_->NotifyAllLocked();
    return;
  }
  // Take each mutex briefly before notifying: the failure flag is already
  // visible (it is set before this call), so holding the lock closes the
  // window where a waiter checked its predicate before the flag flipped
  // but has not gone to sleep yet. Null slots never had a waiter.
  const size_t count = MailboxCount();
  for (size_t i = 0; i < count; ++i) {
    Mailbox* box = mailboxes_[i].load(std::memory_order_acquire);
    if (box == nullptr) continue;
    std::lock_guard<lockcheck::OrderedMutex> lock(box->mutex);
    box->cv.notify_all();
  }
  {
    std::lock_guard<lockcheck::OrderedMutex> lock(barrier_mutex_);
    barrier_cv_.notify_all();
  }
  {
    std::lock_guard<lockcheck::OrderedMutex> lock(sync_mutex_);
    sync_cv_.notify_all();
  }
}

void Network::Post(int src, int dst, Packet packet) {
  SPARDL_DCHECK(src >= 0 && src < size_);
  SPARDL_DCHECK(dst >= 0 && dst < size_);
  Mailbox& box = BoxFor(src, dst);
  if (engine_) {
    // Inject the flow at *send* time: its route and logical injection time
    // are fully known here, and charging from the sender side is what
    // frees the engine from receiver-thread ordering.
    std::unique_lock<lockcheck::OrderedMutex> lock(engine_->mu());
    packet.flow =
        engine_->InjectFlowLocked(src, dst, packet.words, packet.sent_at);
    box.queue.push_back(std::move(packet));
    // No fiber notify: the new flow is unresolved, so no receive
    // predicate can hold until PumpEngine resolves it (and wakes dst).
    engine_->NotifyAllLocked();
    return;
  }
  {
    std::lock_guard<lockcheck::OrderedMutex> lock(box.mutex);
    box.queue.push_back(std::move(packet));
  }
  box.cv.notify_all();
  NotifyFiber(dst);
}

Network::Delivered Network::RecvPacket(int src, int dst, int tag,
                                       double receiver_now) {
  if (engine_) {
    Mailbox& box = BoxFor(src, dst);
    const auto find_tag = [&box, tag] {
      auto it = box.queue.begin();
      while (it != box.queue.end() && it->tag != tag) ++it;
      return it;
    };
    std::unique_lock<lockcheck::OrderedMutex> lock(engine_->mu());
    engine_->BlockUntil(
        lock,
        [&] {
          if (interrupted()) return true;  // monotonic, pred stays pure
          const auto it = find_tag();
          return it != box.queue.end() && engine_->ResolvedLocked(it->flow);
        },
        recv_timeout_seconds_, [&] {
          return StrFormat("Recv dst=%d src=%d tag=%d (event engine)", dst,
                           src, tag);
        });
    ThrowIfInterrupted();
    const auto it = find_tag();
    Delivered delivered{std::move(*it), 0.0};
    box.queue.erase(it);
    const double arrival =
        engine_->TakeArrivalLocked(delivered.packet.flow);
    // Traversal overlaps receiver compute; consumption waits for whichever
    // finishes last (same rule as the busy-until engine).
    delivered.delivery_time = std::max(receiver_now, arrival);
    return delivered;
  }
  Delivered delivered{Take(src, dst, tag), 0.0};
  delivered.delivery_time =
      topology_->ChargeMessage(src, dst, delivered.packet.words,
                               delivered.packet.sent_at, receiver_now);
  return delivered;
}

// GCC 12's -Wmaybe-uninitialized misfires on the NRVO'd move-out of the
// queue entry below: after inlining Packet's move constructor it reasons
// about the moved-from std::variant alternative's internal vector
// pointers, which are never read again (the std::variant + inlining
// false-positive family, gcc PR 105593 et al.). Narrow, documented
// suppression; the code is a plain move-then-erase.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
Packet Network::Take(int src, int dst, int tag) {
  // Event-mode mailboxes are guarded by the engine mutex and never signal
  // box.cv — a raw Take there would race and hang. Fail loudly instead.
  SPARDL_CHECK(engine_ == nullptr)
      << "Take() bypasses the event engine; use RecvPacket on "
         "event-ordered fabrics";
  Mailbox& box = BoxFor(src, dst);
  const auto has_tag = [&box, tag] {
    for (const Packet& packet : box.queue) {
      if (packet.tag == tag) return true;
    }
    return false;
  };
  std::unique_lock<lockcheck::OrderedMutex> lock(box.mutex);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(recv_timeout_seconds_));
  for (;;) {
    ThrowIfInterrupted();
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (it->tag == tag) {
        Packet packet = std::move(*it);
        box.queue.erase(it);
        return packet;
      }
    }
    if (CoopScheduler* scheduler = CoopScheduler::Current();
        scheduler != nullptr) {
      // Fibers share one OS thread: drop the lock across the switch
      // (see CoopScheduler's locking contract); the sender's Post
      // notifies this worker, and runs on this same thread, so the
      // lock-free predicate read is race-free.
      lock.unlock();
      scheduler->Wait([&] { return interrupted() || has_tag(); }, [&] {
        return StrFormat("Recv dst=%d src=%d tag=%d (busy-until)", dst, src,
                         tag);
      });
      lock.lock();
      continue;
    }
    SPARDL_CHECK(box.cv.wait_until(lock, deadline) !=
                 std::cv_status::timeout)
        << "Recv timed out: dst=" << dst << " waiting on src=" << src
        << " tag=" << tag << " — collective deadlock?";
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void Network::BarrierWait() {
  // One state machine for both engines; only the mutex/wait primitive
  // differs (barrier waiters must count as blocked for the event engine's
  // quiescence detection, so its wait routes through BlockUntil).
  const auto arrive = [&]() -> bool {
    if (++barrier_waiting_ < size_) return false;
    barrier_waiting_ = 0;
    ++barrier_generation_;
    return true;  // last arriver releases everyone
  };
  if (engine_) {
    std::unique_lock<lockcheck::OrderedMutex> lock(engine_->mu());
    const uint64_t my_generation = barrier_generation_;
    if (arrive()) {
      engine_->NotifyAllLocked();
      NotifyAllFibers();
      return;
    }
    engine_->BlockUntil(
        lock,
        [&] {
          return barrier_generation_ != my_generation || interrupted();
        },
        recv_timeout_seconds_,
        [] { return std::string("BarrierWait (event engine)"); });
    ThrowIfInterrupted();
    return;
  }
  std::unique_lock<lockcheck::OrderedMutex> lock(barrier_mutex_);
  const uint64_t my_generation = barrier_generation_;
  if (arrive()) {
    barrier_cv_.notify_all();
    NotifyAllFibers();
    return;
  }
  const auto released = [&] {
    return barrier_generation_ != my_generation || interrupted();
  };
  if (CoopScheduler* scheduler = CoopScheduler::Current();
      scheduler != nullptr) {
    lock.unlock();
    scheduler->Wait(released,
                    [] { return std::string("BarrierWait (busy-until)"); });
    lock.lock();
  } else {
    barrier_cv_.wait(lock, released);
  }
  ThrowIfInterrupted();
}

double Network::MaxClockSync(int rank, double value) {
  (void)rank;
  // Shared fold/latch state machine, same split as BarrierWait.
  const auto publish = [&]() -> bool {
    if (value > sync_max_) sync_max_ = value;
    if (++sync_count_ < size_) return false;
    sync_result_ = sync_max_;
    sync_max_ = 0.0;
    sync_count_ = 0;
    ++sync_generation_;
    return true;  // last publisher latches the max
  };
  if (engine_) {
    std::unique_lock<lockcheck::OrderedMutex> lock(engine_->mu());
    const uint64_t my_generation = sync_generation_;
    if (publish()) {
      engine_->NotifyAllLocked();
      NotifyAllFibers();
      return sync_result_;
    }
    engine_->BlockUntil(
        lock,
        [&] { return sync_generation_ != my_generation || interrupted(); },
        recv_timeout_seconds_,
        [] { return std::string("MaxClockSync (event engine)"); });
    ThrowIfInterrupted();
    return sync_result_;
  }
  std::unique_lock<lockcheck::OrderedMutex> lock(sync_mutex_);
  const uint64_t my_generation = sync_generation_;
  if (publish()) {
    sync_cv_.notify_all();
    NotifyAllFibers();
    return sync_result_;
  }
  const auto latched = [&] {
    return sync_generation_ != my_generation || interrupted();
  };
  if (CoopScheduler* scheduler = CoopScheduler::Current();
      scheduler != nullptr) {
    lock.unlock();
    scheduler->Wait(latched,
                    [] { return std::string("MaxClockSync (busy-until)"); });
    lock.lock();
  } else {
    sync_cv_.wait(lock, latched);
  }
  ThrowIfInterrupted();
  return sync_result_;
}

bool Network::AllMailboxesEmpty() const {
  const size_t count = MailboxCount();
  if (engine_) {
    std::lock_guard<lockcheck::OrderedMutex> lock(engine_->mu());
    for (size_t i = 0; i < count; ++i) {
      const Mailbox* box = mailboxes_[i].load(std::memory_order_acquire);
      if (box != nullptr && !box->queue.empty()) return false;
    }
    return true;
  }
  for (size_t i = 0; i < count; ++i) {
    Mailbox* box = mailboxes_[i].load(std::memory_order_acquire);
    if (box == nullptr) continue;
    std::lock_guard<lockcheck::OrderedMutex> lock(box->mutex);
    if (!box->queue.empty()) return false;
  }
  return true;
}

void Network::ResetSimState() {
  // Link busy clocks must rewind with the worker clocks, or leftover
  // warm-up occupancy would delay post-reset flows.
  topology_->ResetLinkClocks();
  if (engine_) engine_->Reset();
}

}  // namespace spardl
