#include "simnet/protocol_check.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace spardl {

namespace {

/// How many trailing ops each worker's log retains / a diagnosis prints.
/// Enough to show the full divergent round; bounded so an instrumented
/// multi-thousand-iteration bench stays O(1) memory per worker.
constexpr size_t kLogCapacity = 64;
constexpr size_t kLogPrinted = 12;

}  // namespace

std::string_view ProtocolOpName(ProtocolOp op) {
  switch (op) {
    case ProtocolOp::kSend:
      return "send";
    case ProtocolOp::kRecv:
      return "recv";
    case ProtocolOp::kBarrier:
      return "barrier";
    case ProtocolOp::kClockSync:
      return "barrier-sync";
  }
  return "?";
}

ProtocolChecker::ProtocolChecker(int num_workers)
    : num_workers_(num_workers) {
  SPARDL_CHECK_GE(num_workers_, 1);
  workers_.resize(static_cast<size_t>(num_workers_));
}

void ProtocolChecker::BeginRun() {
  SPARDL_CHECK(!failed())
      << "ProtocolChecker reused after a violation; the cluster's "
         "simulated state is inconsistent past the first diagnosis";
  for (Worker& worker : workers_) worker = Worker{};
}

void ProtocolChecker::Record(int rank, ProtocolRecord record) {
  Worker& worker = WorkerFor(rank);
  record.iteration = worker.iteration;
  ++worker.num_ops;
  worker.log.push_back(record);
  if (worker.log.size() > kLogCapacity) worker.log.pop_front();
}

void ProtocolChecker::OnSend(int src, int dst, int tag, size_t words) {
  Record(src, ProtocolRecord{ProtocolOp::kSend, dst, tag, words, 0});
}

void ProtocolChecker::OnRecvPosted(int rank, int src, int tag) {
  Record(rank, ProtocolRecord{ProtocolOp::kRecv, src, tag, 0, 0});
  Worker& worker = WorkerFor(rank);
  worker.state = WorkerState::kRecvWait;
  worker.wait_peer = src;
  worker.wait_tag = tag;
}

void ProtocolChecker::OnRecvMatched(int rank, size_t words) {
  Worker& worker = WorkerFor(rank);
  worker.state = WorkerState::kRunning;
  // Backfill the element count onto the recv record made at post time.
  if (!worker.log.empty() && worker.log.back().op == ProtocolOp::kRecv) {
    worker.log.back().words = words;
  }
}

void ProtocolChecker::OnBarrierEnter(int rank, bool clock_sync) {
  Record(rank, ProtocolRecord{clock_sync ? ProtocolOp::kClockSync
                                         : ProtocolOp::kBarrier,
                              -1, 0, 0, 0});
  Worker& worker = WorkerFor(rank);
  worker.state = WorkerState::kBarrierWait;
  worker.wait_clock_sync = clock_sync;
}

void ProtocolChecker::OnBarrierDone(int rank) {
  WorkerFor(rank).state = WorkerState::kRunning;
}

void ProtocolChecker::OnIteration(int rank) { ++WorkerFor(rank).iteration; }

void ProtocolChecker::FailPeerAsymmetry(int src, int dst, size_t count,
                                        int tag, size_t words) {
  Fail("peer asymmetry: " + std::to_string(count) +
       " unmatched send(s) from worker " + std::to_string(src) +
       " to worker " + std::to_string(dst) + " (first: tag=" +
       std::to_string(tag) + ", words=" + std::to_string(words) +
       ") at a clock-sync barrier — the receiver never posted a matching "
       "recv this iteration\n" +
       DescribeWorker(src) + DescribeWorker(dst));
}

void ProtocolChecker::DiagnoseDeadlock(const MailboxTags& mailbox_tags) {
  if (failed()) return;
  const auto barrier_name = [](bool clock_sync) {
    return std::string(clock_sync ? "BarrierSyncClocks" : "Barrier");
  };
  // Barrier and BarrierSyncClocks use separate counters, so workers
  // waiting in different kinds can never rendezvous.
  int first_waiter[2] = {-1, -1};  // lowest rank per kind, [clock_sync]
  for (int rank = 0; rank < num_workers_; ++rank) {
    const Worker& worker = WorkerFor(rank);
    int& first = first_waiter[worker.wait_clock_sync ? 1 : 0];
    if (worker.state == WorkerState::kBarrierWait && first < 0) {
      first = rank;
    }
  }
  if (first_waiter[0] >= 0 && first_waiter[1] >= 0) {
    const int first = std::min(first_waiter[0], first_waiter[1]);
    const int second = std::max(first_waiter[0], first_waiter[1]);
    Fail("collective mismatch: worker " + std::to_string(first) +
         " waits in " + barrier_name(WorkerFor(first).wait_clock_sync) +
         " while worker " + std::to_string(second) + " waits in " +
         barrier_name(WorkerFor(second).wait_clock_sync) +
         " — divergent barrier kinds can never rendezvous\n" +
         DescribeWorker(first) + DescribeWorker(second));
    return;
  }
  // Pick the most specific diagnosis. At a stall every live worker waits,
  // so a worker with no recorded wait has returned.
  int victim = -1;
  int peer = -1;
  std::string reason;
  for (int rank = 0; rank < num_workers_ && victim < 0; ++rank) {
    const Worker& worker = WorkerFor(rank);
    if (worker.state != WorkerState::kRecvWait) continue;
    const std::vector<int> queued = mailbox_tags(worker.wait_peer, rank);
    if (queued.empty()) continue;
    // Messages sit in the awaited mailbox but none carries the awaited
    // tag: the classic mismatched-tag divergence.
    std::string tags;
    for (const int tag : queued) {
      if (!tags.empty()) tags += ", ";
      tags += std::to_string(tag);
    }
    reason = "tag mismatch: worker " + std::to_string(rank) +
             " waits for tag " + std::to_string(worker.wait_tag) +
             " from worker " + std::to_string(worker.wait_peer) +
             ", but that mailbox only holds message(s) with tag(s) [" +
             tags + "]";
    victim = rank;
    peer = worker.wait_peer;
  }
  for (int rank = 0; rank < num_workers_ && victim < 0; ++rank) {
    const Worker& worker = WorkerFor(rank);
    if (worker.state == WorkerState::kRecvWait &&
        WorkerFor(worker.wait_peer).state == WorkerState::kRunning) {
      reason = "peer finished early: worker " + std::to_string(rank) +
               " waits for tag " + std::to_string(worker.wait_tag) +
               " from worker " + std::to_string(worker.wait_peer) +
               ", which already returned — divergent op counts "
               "(e.g. unequal round/team sizes)";
      victim = rank;
      peer = worker.wait_peer;
    }
  }
  for (int rank = 0; rank < num_workers_ && victim < 0; ++rank) {
    const Worker& worker = WorkerFor(rank);
    if (worker.state != WorkerState::kBarrierWait) continue;
    // A barrier needs every worker; someone returned or is recv-stuck.
    victim = rank;
    for (int other = 0; other < num_workers_; ++other) {
      if (WorkerFor(other).state != WorkerState::kBarrierWait) {
        peer = other;
        break;
      }
    }
    reason = "incomplete barrier: worker " + std::to_string(rank) +
             " waits at " + barrier_name(worker.wait_clock_sync) +
             " but worker " + std::to_string(peer) + " can never arrive";
  }
  if (victim < 0) {
    // Every blocked worker waits on an empty mailbox.
    for (int rank = 0; rank < num_workers_; ++rank) {
      if (WorkerFor(rank).state == WorkerState::kRecvWait) {
        victim = rank;
        peer = WorkerFor(rank).wait_peer;
        break;
      }
    }
    reason = "collective deadlock: every worker is blocked and no queued "
             "message satisfies any pending recv (divergent schedules)";
  }
  std::string message = reason + "\n";
  if (victim >= 0) message += DescribeWorker(victim);
  if (peer >= 0 && peer != victim) message += DescribeWorker(peer);
  std::ostringstream summary;
  summary << "worker states:";
  for (int rank = 0; rank < num_workers_; ++rank) {
    const Worker& worker = WorkerFor(rank);
    summary << " " << rank << "=";
    switch (worker.state) {
      case WorkerState::kRunning:
        summary << "done";
        break;
      case WorkerState::kRecvWait:
        summary << "recv-wait(src=" << worker.wait_peer
                << ",tag=" << worker.wait_tag << ")";
        break;
      case WorkerState::kBarrierWait:
        summary << (worker.wait_clock_sync ? "barrier-sync-wait"
                                           : "barrier-wait");
        break;
    }
  }
  Fail(message + summary.str());
}

void ProtocolChecker::Fail(std::string message) {
  if (failed()) return;  // first diagnosis wins
  status_ = Status::FailedPrecondition("protocol violation: " +
                                       std::move(message));
  failed_ = true;
}

std::string ProtocolChecker::DescribeWorker(int rank) const {
  const Worker& worker = WorkerFor(rank);
  std::ostringstream out;
  out << "-- worker " << rank << " op trace (iter " << worker.iteration
      << ", " << worker.num_ops << " ops total, last "
      << std::min(worker.log.size(), kLogPrinted) << " shown):\n";
  const size_t start =
      worker.log.size() > kLogPrinted ? worker.log.size() - kLogPrinted : 0;
  for (size_t i = start; i < worker.log.size(); ++i) {
    const ProtocolRecord& record = worker.log[i];
    const uint64_t ordinal = worker.num_ops - worker.log.size() + i + 1;
    out << "   #" << ordinal << " " << ProtocolOpName(record.op);
    if (record.op == ProtocolOp::kSend) {
      out << "(dst=" << record.peer << ", tag=" << record.tag
          << ", words=" << record.words << ")";
    } else if (record.op == ProtocolOp::kRecv) {
      out << "(src=" << record.peer << ", tag=" << record.tag
          << ", words=" << record.words << ")";
    } else {
      out << "()";
    }
    out << " @iter" << record.iteration << "\n";
  }
  return out.str();
}

}  // namespace spardl
