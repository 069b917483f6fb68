#include "simnet/network.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "simnet/protocol_check.h"
#include "topo/topologies.h"

namespace spardl {

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
    : topology_(std::move(topology)),
      engine_(*topology_),
      size_(topology_->num_workers()),
      // Value-initialized: every slot starts null; boxes appear on first
      // touch (see BoxForLocked). The slot table itself is P^2 * 8 bytes —
      // 134MB at P = 4096 — versus gigabytes for eager construction.
      mailboxes_(static_cast<size_t>(size_) * static_cast<size_t>(size_)) {
  SPARDL_CHECK_GE(size_, 1);
}

Network::Mailbox& Network::BoxForLocked(int src, int dst) {
  std::unique_ptr<Mailbox>& slot =
      mailboxes_[static_cast<size_t>(src) * static_cast<size_t>(size_) +
                 static_cast<size_t>(dst)];
  if (slot == nullptr) slot = std::make_unique<Mailbox>();
  return *slot;
}

void Network::SetWorkerSlowdown(int rank, double factor) {
  SPARDL_CHECK(rank >= 0 && rank < size_);
  SPARDL_CHECK_GT(factor, 0.0);
  topology_->SetNodeScale(rank, factor);
}

void Network::set_scheduler(Scheduler* scheduler) {
  scheduler_ = scheduler;
  if (scheduler_ != nullptr && protocol_ != nullptr) {
    scheduler_->set_deadlock_hook([this] { DiagnoseDeadlockLocked(); });
  }
}

bool Network::interrupted() const {
  return protocol_ != nullptr && protocol_->failed();
}

void Network::ThrowIfInterrupted() const {
  if (interrupted()) throw ProtocolViolation(protocol_->status());
}

void Network::DiagnoseDeadlockLocked() {
  protocol_->DiagnoseDeadlock([this](int src, int dst) {
    std::vector<int> tags;
    const std::unique_ptr<Mailbox>& box =
        mailboxes_[static_cast<size_t>(src) * static_cast<size_t>(size_) +
                   static_cast<size_t>(dst)];
    if (box != nullptr) {
      for (const Packet& packet : *box) tags.push_back(packet.tag);
    }
    return tags;
  });
  NotifyAllLocked();
}

ptrdiff_t Network::FirstQueuedLocked() const {
  for (size_t i = 0; i < mailboxes_.size(); ++i) {
    const std::unique_ptr<Mailbox>& box = mailboxes_[i];
    if (box != nullptr && !box->empty()) return static_cast<ptrdiff_t>(i);
  }
  return -1;
}

void Network::NotifyAllLocked() {
  if (scheduler_ != nullptr) scheduler_->NotifyAll();
}

void Network::WaitLocked(int rank, Lock& lock,
                         const std::function<bool()>& pred,
                         const std::function<std::string()>& describe) {
  SPARDL_CHECK(scheduler_ != nullptr)
      << describe()
      << " waits outside Cluster::Run: every wait goes through the "
         "scheduler of a running cluster";
  scheduler_->Wait(rank, lock, pred, recv_timeout_seconds_, describe);
}

void Network::Post(int src, int dst, Packet packet) {
  SPARDL_DCHECK(src >= 0 && src < size_);
  SPARDL_DCHECK(dst >= 0 && dst < size_);
  // Inject the flow at *send* time: its route and logical injection time
  // are fully known here, and charging from the sender side is what frees
  // the engine from receiver-thread ordering.
  std::lock_guard<std::mutex> lock(engine_.mu());
  if (protocol_ != nullptr) {
    protocol_->OnSend(src, dst, packet.tag, packet.words);
  }
  const uint64_t flow =
      engine_.InjectFlowLocked(src, dst, packet.words, packet.sent_at);
  packet.flow = flow;
  BoxForLocked(src, dst).push_back(std::move(packet));
  // A closed-form message is deliverable at once. A flow is unresolved,
  // so it can release nobody until the stall step resolves it (and the
  // scheduler notifies dst then).
  if (flow == 0 && scheduler_ != nullptr) scheduler_->Notify(dst);
}

void Network::MarkIteration(int rank) {
  if (protocol_ == nullptr) return;
  std::lock_guard<std::mutex> lock(engine_.mu());
  protocol_->OnIteration(rank);
}

Network::Delivered Network::RecvPacket(int src, int dst, int tag,
                                       double receiver_now) {
  Lock lock(engine_.mu());
  if (protocol_ != nullptr) protocol_->OnRecvPosted(dst, src, tag);
  Mailbox& box = BoxForLocked(src, dst);
  const auto find_tag = [&box, tag] {
    auto it = box.begin();
    while (it != box.end() && it->tag != tag) ++it;
    return it;
  };
  WaitLocked(
      dst, lock,
      [&] {
        if (interrupted()) return true;  // monotonic, pred stays pure
        const auto it = find_tag();
        return it != box.end() && engine_.ResolvedLocked(it->flow);
      },
      [&] { return StrFormat("Recv dst=%d src=%d tag=%d", dst, src, tag); });
  ThrowIfInterrupted();
  const auto it = find_tag();
  Delivered delivered{std::move(*it), 0.0};
  box.erase(it);
  const Packet& packet = delivered.packet;
  if (protocol_ != nullptr) protocol_->OnRecvMatched(dst, packet.words);
  delivered.delivery_time = engine_.TakeDeliveryLocked(
      packet.flow, src, dst, packet.words, packet.sent_at, receiver_now);
  return delivered;
}

void Network::BarrierWait(int rank) {
  Lock lock(engine_.mu());
  if (protocol_ != nullptr) protocol_->OnBarrierEnter(rank, false);
  const uint64_t my_generation = barrier_generation_;
  if (++barrier_waiting_ == size_) {
    // Last arriver releases everyone.
    barrier_waiting_ = 0;
    ++barrier_generation_;
    NotifyAllLocked();
  } else {
    WaitLocked(
        rank, lock,
        [&] { return barrier_generation_ != my_generation || interrupted(); },
        [] { return std::string("BarrierWait"); });
  }
  ThrowIfInterrupted();
  if (protocol_ != nullptr) protocol_->OnBarrierDone(rank);
}

double Network::MaxClockSync(int rank, double value) {
  Lock lock(engine_.mu());
  if (protocol_ != nullptr) protocol_->OnBarrierEnter(rank, true);
  const uint64_t my_generation = sync_generation_;
  if (value > sync_max_) sync_max_ = value;
  if (++sync_count_ == size_) {
    // Last publisher latches the max. A clock sync is an iteration
    // boundary, so a message still queued is a peer asymmetry.
    sync_result_ = sync_max_;
    sync_max_ = 0.0;
    sync_count_ = 0;
    ++sync_generation_;
    // Every worker has arrived, so every send of this iteration has been
    // posted and every matching receive has consumed its message.
    const ptrdiff_t queued = protocol_ != nullptr ? FirstQueuedLocked() : -1;
    if (queued >= 0) {
      const Mailbox& box = *mailboxes_[static_cast<size_t>(queued)];
      protocol_->FailPeerAsymmetry(static_cast<int>(queued / size_),
                                   static_cast<int>(queued % size_),
                                   box.size(), box.front().tag,
                                   box.front().words);
    }
    NotifyAllLocked();
  } else {
    WaitLocked(
        rank, lock,
        [&] { return sync_generation_ != my_generation || interrupted(); },
        [] { return std::string("MaxClockSync"); });
  }
  ThrowIfInterrupted();
  if (protocol_ != nullptr) protocol_->OnBarrierDone(rank);
  return sync_result_;
}

bool Network::AllMailboxesEmpty() const {
  std::lock_guard<std::mutex> lock(engine_.mu());
  return FirstQueuedLocked() < 0;
}

}  // namespace spardl
