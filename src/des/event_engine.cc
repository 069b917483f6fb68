#include "des/event_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "des/coop_scheduler.h"

namespace spardl {

EventEngine::EventEngine(const Topology& topology)
    : topology_(topology),
      closed_form_(topology.closed_form_charge()),
      clocks_(static_cast<size_t>(topology.num_workers())) {
  if (closed_form_) return;
  links_.resize(static_cast<size_t>(topology.num_links()));
  const size_t p = static_cast<size_t>(topology.num_workers());
  pair_seq_.assign(p * p, 0);
}

void EventEngine::WorkerEnter() {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  ++active_;
}

void EventEngine::WorkerExit() {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  --active_;
  SPARDL_DCHECK(active_ >= 0);
  // One fewer runnable thread may make the remaining sleepers quiescent;
  // wake them all so one of them re-evaluates the pump condition.
  cv_.notify_all();
}

void EventEngine::NotifyAllLocked() {
  cv_.notify_all();
  if (CoopScheduler* scheduler = CoopScheduler::Current()) {
    scheduler->NotifyAll();
  }
}

uint64_t EventEngine::InjectFlowLocked(int src, int dst, size_t words,
                                       double sent_at) {
  const int p = topology_.num_workers();
  SPARDL_DCHECK(src >= 0 && src < p);
  SPARDL_DCHECK(dst >= 0 && dst < p);
  // Threads: a new message may release its receiver (closed form) or
  // make an event pumpable under the safe horizon (flows).
  cv_.notify_all();
  if (closed_form_) {
    if (CoopScheduler* scheduler = CoopScheduler::Current()) {
      scheduler->Notify(dst);
    }
    return 0;
  }
  // No fiber notify for a flow: it is unresolved, so no receive
  // predicate can hold until PumpEngine resolves it (and wakes dst).
  const size_t pair = static_cast<size_t>(src) * static_cast<size_t>(p) +
                      static_cast<size_t>(dst);
  const uint64_t key = (static_cast<uint64_t>(pair) << 32) | pair_seq_[pair];
  ++pair_seq_[pair];

  Flow flow;
  flow.words = words;
  flow.src = src;
  flow.dst = dst;
  flow.sent_at = sent_at;
  topology_.Route(src, dst, &flow.path);
  SPARDL_DCHECK(!flow.path.empty()) << "empty route " << src << "->" << dst;
  flows_.emplace(key, std::move(flow));
  queue_.Push(sent_at, key);
  return key;
}

double EventEngine::TakeDeliveryLocked(uint64_t flow, int src, int dst,
                                       size_t words, double sent_at,
                                       double receiver_now) {
  if (flow == 0) {
    return topology_.ChargeMessage(src, dst, words, sent_at, receiver_now);
  }
  auto it = resolved_.find(flow);
  SPARDL_CHECK(it != resolved_.end()) << "unresolved flow consumed";
  const double arrival = it->second;
  resolved_.erase(it);
  return std::max(receiver_now, arrival);
}

bool EventEngine::AnySleeperReadyLocked() const {
  for (const Sleeper& sleeper : sleepers_) {
    if ((*sleeper.pred)()) return true;
  }
  return false;
}

double EventEngine::HorizonLocked() const {
  double horizon = std::numeric_limits<double>::infinity();
  for (const PublishedClock& clock : clocks_) {
    horizon =
        std::min(horizon, clock.value.load(std::memory_order_relaxed));
  }
  return horizon;
}

uint64_t EventEngine::PumpOneLocked() {
  const EventQueue::Event event = queue_.PopEarliest();
  auto it = flows_.find(event.flow);
  SPARDL_DCHECK(it != flows_.end());
  Flow& flow = it->second;

  const LinkId id = flow.path[static_cast<size_t>(flow.hop)];
  // link_info folds SetNodeScale into alpha/beta.
  const LinkInfo link = topology_.link_info(id);
  const double serialize = link.beta * static_cast<double>(flow.words);
  const uint64_t bytes = static_cast<uint64_t>(flow.words) * 4;
  LinkServer& server = links_[static_cast<size_t>(id)];
  const double start = std::max(event.time, server.busy_until());
  const double head_out = server.Serve(event.time, link.alpha, serialize,
                                       bytes);
  if (trace_recorder_ != nullptr) {
    // The flow key embeds (src*P + dst) in its upper half.
    const int p = topology_.num_workers();
    const auto pair = static_cast<int>(event.flow >> 32);
    trace_recorder_->RecordLink(TraceSpan{id, kStreamLink, Phase::kLink,
                                          "flow", pair / p, pair % p, start,
                                          head_out + serialize, bytes});
    flow.hops.push_back(FlowHop{id, event.time, start, head_out, serialize});
  }
  flow.bottleneck = std::max(flow.bottleneck, serialize);
  ++flow.hop;
  if (flow.hop < static_cast<int>(flow.path.size())) {
    queue_.Push(head_out, event.flow);
    return 0;
  }
  // Final hop: the body trails the header by the bottleneck serialization.
  const double arrival = head_out + flow.bottleneck;
  resolved_.emplace(event.flow, arrival);
  if (trace_recorder_ != nullptr) {
    FlowRecord record;
    record.src = flow.src;
    record.dst = flow.dst;
    record.words = flow.words;
    record.sent_at = flow.sent_at;
    record.arrival = arrival;
    record.hops = std::move(flow.hops);
    trace_recorder_->RecordFlow(event.flow, std::move(record));
  }
  flows_.erase(it);
  return event.flow;
}

void EventEngine::BlockUntil(std::unique_lock<lockcheck::OrderedMutex>& lock,
                             const std::function<bool()>& pred,
                             double timeout_seconds,
                             const std::function<std::string()>& describe) {
  if (CoopScheduler* scheduler = CoopScheduler::Current();
      scheduler != nullptr) {
    // Cooperative backend: blocking is the scheduler's job. The engine
    // lock must drop before the fiber switch — the next fiber runs on
    // this same OS thread and would self-deadlock re-acquiring it. The
    // scheduler evaluates `pred` lock-free (sound: one carrier thread)
    // and pumps through `PumpOneLocked` at its own quiescent cuts.
    lock.unlock();
    scheduler->Wait(pred, describe);
    lock.lock();
    return;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  ++blocked_;
  while (!pred()) {
    // Pump when it is provably safe. Quiescent cut: every registered
    // worker is blocked (this thread included) and no sleeper could make
    // progress if it held the lock, so the pending flow set is
    // scheduling-independent and the earliest event is safe to process.
    // Safe horizon: even with workers still running, an event strictly
    // below the min published clock precedes every flow any worker can
    // still inject, so pumping it now cannot disturb the (time, key)
    // order (see HorizonLocked). The sleeper check pauses pumping the
    // moment a resolution releases someone: that worker must consume its
    // arrival and run — possibly injecting earlier-keyed flows — before
    // later events are touched.
    if (!queue_.Empty() && !AnySleeperReadyLocked() &&
        (blocked_ >= active_ || queue_.NextTime() < HorizonLocked())) {
      const uint64_t resolved = PumpOneLocked();
      if (resolved != 0 && AnySleeperReadyLocked()) {
        // Hand the arrival over to the released sleeper and park.
        cv_.notify_all();
      } else {
        // Mid-path hop, or a resolution whose receiver has not asked yet —
        // keep pumping (after letting our own predicate notice it).
        continue;
      }
    }
    const auto me = sleepers_.insert(sleepers_.end(), Sleeper{&pred});
    const bool timed_out =
        cv_.wait_until(lock, deadline) == std::cv_status::timeout;
    sleepers_.erase(me);
    SPARDL_CHECK(!timed_out)
        << describe() << " timed out after " << timeout_seconds
        << "s of wall time — collective deadlock?";
  }
  --blocked_;
}

void EventEngine::Reset() {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  // resolved_ must drain too: a pre-reset arrival silently applied to
  // post-reset clocks would be a far worse bug than this abort.
  SPARDL_CHECK(flows_.empty() && queue_.Empty() && resolved_.empty())
      << "event engine reset with flows in flight or unconsumed arrivals";
  for (LinkServer& link : links_) link.Reset();
}

bool EventEngine::Idle() const {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  return flows_.empty() && queue_.Empty() && resolved_.empty();
}

LinkUsage EventEngine::link_usage(LinkId id) const {
  SPARDL_CHECK(id >= 0 && id < topology_.num_links());
  if (closed_form_) return LinkUsage{};
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  return links_[static_cast<size_t>(id)].usage();
}

void EventEngine::set_trace_recorder(TraceRecorder* recorder) {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  trace_recorder_ = recorder;
}

}  // namespace spardl
