#include "simnet/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/logging.h"

// TSan cannot follow ucontext stack switches (unlike ASan there is no
// fiber annotation API for it), so fiber execution under TSan would
// produce nothing but false positives. Detect it and pin the thread
// backend; the TSan CI job exists precisely to watch real threads.
#if defined(__SANITIZE_THREAD__)
#define SPARDL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPARDL_TSAN 1
#endif
#endif

namespace spardl {

Cluster::Cluster(int size, CostModel cost_model)
    : Cluster(std::make_unique<Network>(size, cost_model)) {}

Cluster::Cluster(const TopologySpec& spec)
    : Cluster(std::make_unique<Network>([&spec] {
        auto built = spec.Build();
        SPARDL_CHECK(built.ok()) << built.status().ToString();
        return std::move(*built);
      }())) {}

Cluster::Cluster(std::unique_ptr<Network> network)
    : network_(std::move(network)), backend_(DefaultExecBackend()) {
  const int size = network_->size();
  comms_.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) {
    comms_.push_back(std::make_unique<Comm>(network_.get(), r));
  }
}

Cluster::~Cluster() = default;

ExecBackend Cluster::DefaultExecBackend() {
#ifdef SPARDL_TSAN
  return ExecBackend::kThread;
#else
  static const ExecBackend backend = [] {
    const char* env = std::getenv("SPARDL_EXEC_BACKEND");
    if (env == nullptr || *env == '\0') return ExecBackend::kThread;
    const std::string value(env);
    if (value == "thread") return ExecBackend::kThread;
    if (value == "fiber") return ExecBackend::kFiber;
    SPARDL_CHECK(false) << "SPARDL_EXEC_BACKEND must be \"thread\" or "
                           "\"fiber\", got \""
                        << value << "\"";
    __builtin_unreachable();
  }();
  return backend;
#endif
}

Status Cluster::Run(const std::function<void(Comm&)>& worker_fn) {
  SPARDL_CHECK(!poisoned_)
      << "Cluster::Run after a protocol violation: workers were unwound "
         "mid-collective, so the simulated state is inconsistent";
  ProtocolChecker* checker = protocol_checker_.get();
  if (checker != nullptr) checker->BeginRun();
#ifdef SPARDL_TSAN
  const ExecBackend backend = ExecBackend::kThread;
#else
  const ExecBackend backend = backend_;
#endif
  Network* network = network_.get();
  Scheduler scheduler;
  network->set_scheduler(&scheduler);
  scheduler.Run(
      backend, size(), network->event_engine(),
      [this, &worker_fn](int rank) {
        try {
          worker_fn(*comms_[static_cast<size_t>(rank)]);
        } catch (const ProtocolViolation&) {
          // The diagnosis is latched in the checker, and the network woke
          // every waiter with it; just unwind this worker. (Only thrown
          // when a checker is attached.)
        }
      });
  network->set_scheduler(nullptr);
  scheduler_stats_ += scheduler.stats();
  if (checker != nullptr && checker->failed()) {
    // Unwound mid-collective: mailboxes may hold orphaned messages and
    // the engine unresolved flows — by design. Poison instead of
    // CHECKing the end-of-run invariants.
    poisoned_ = true;
    return checker->status();
  }
  SPARDL_CHECK(network_->AllMailboxesEmpty())
      << "worker function left unconsumed messages in the network";
  SPARDL_CHECK(network_->SimIdle())
      << "worker function left unresolved flows in the event engine";
  return Status::OK();
}

TraceRecorder& Cluster::EnableTracing() {
  if (!trace_recorder_) {
    trace_recorder_ = std::make_unique<TraceRecorder>(size());
    for (auto& comm : comms_) comm->set_tracer(trace_recorder_.get());
    network_->AttachTraceRecorder(trace_recorder_.get());
  }
  return *trace_recorder_;
}

ProtocolChecker& Cluster::EnableProtocolCheck() {
  if (!protocol_checker_) {
    protocol_checker_ = std::make_unique<ProtocolChecker>(size());
    network_->set_protocol_checker(protocol_checker_.get());
  }
  return *protocol_checker_;
}

double Cluster::MaxSimSeconds() const {
  double max_t = 0.0;
  for (const auto& comm : comms_) {
    max_t = std::max(max_t, comm->sim_now());
  }
  return max_t;
}

CommStats Cluster::TotalStats() const {
  CommStats total;
  for (const auto& comm : comms_) total += comm->stats();
  return total;
}

uint64_t Cluster::MaxWordsReceived() const {
  uint64_t max_words = 0;
  for (const auto& comm : comms_) {
    max_words = std::max(max_words, comm->stats().words_received);
  }
  return max_words;
}

uint64_t Cluster::MaxMessagesReceived() const {
  uint64_t max_messages = 0;
  for (const auto& comm : comms_) {
    max_messages = std::max(max_messages, comm->stats().messages_received);
  }
  return max_messages;
}

void Cluster::ResetClocksAndStats() {
  for (auto& comm : comms_) {
    comm->ResetClock();
    comm->stats().Reset();
  }
  scheduler_stats_ = SchedulerStats{};
  // Link busy clocks must rewind with the worker clocks, or leftover
  // warm-up occupancy would delay post-reset flows.
  network_->ResetSimState();
  // Warm-up spans would otherwise leak into the measured trace.
  if (trace_recorder_) trace_recorder_->Clear();
}

}  // namespace spardl
