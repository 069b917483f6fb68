#ifndef SPARDL_SIMNET_PROTOCOL_CHECK_H_
#define SPARDL_SIMNET_PROTOCOL_CHECK_H_

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace spardl {

/// SPMD collective-protocol verification.
///
/// Every SparDL algorithm is SPMD code against `Comm`: all workers must
/// execute *matching* sequences of collective operations (a send has a
/// receive with the same (peer, tag); all workers reach the same kind of
/// barrier; nobody returns while a peer still waits). A divergence — a
/// mismatched tag, an unequal SRS round count across replicas, a wrong
/// team size — does not crash: it deadlocks. Without a checker the
/// scheduler finds that deadlock at its stall and aborts the process with
/// each worker's pending wait, which names no cause.
///
/// `ProtocolChecker` is an always-compiled, flag-enabled
/// (`Cluster::EnableProtocolCheck` / `--protocol-check`) verifier that
/// turns the deadlock into a diagnosis. It records, per worker, a bounded
/// log of collective ops (kind, peer, tag, element count, iteration) and
/// the wait the worker is blocked in. It keeps no copy of the messages:
/// the diagnosis reads the network's real mailboxes. Memory is O(P).
///
/// Two places latch a diagnosis, both inside `Network` critical sections:
///
///  * the scheduler's stall (every live worker blocked, the engine queue
///    drained, no predicate true) calls `DiagnoseDeadlock`, which picks
///    the most specific class: mismatched barrier kinds, a tag mismatch
///    (the awaited mailbox holds only other tags), a peer that finished
///    early, an incomplete barrier, or else the generic collective
///    deadlock;
///  * the last arriver of a clock-sync barrier (an iteration boundary)
///    reports a still-queued message through `FailPeerAsymmetry` — a peer
///    asymmetry that plain FIFO matching would surface one iteration too
///    late.
///
/// The first diagnosis wins. `Network` notifies every waiter in the same
/// critical section; their wait predicates observe `failed()`, all
/// workers unwind with `ProtocolViolation`, and `Cluster::Run` returns the
/// diagnosis as a `Status` naming the involved workers' op traces —
/// instead of aborting.
///
/// Locking: none of its own. Every call except `BeginRun` and `status`
/// is made with the engine mutex held; `BeginRun` and `status` run while
/// no worker does.

/// One recorded collective operation in a worker's log.
enum class ProtocolOp : uint8_t {
  kSend,
  kRecv,
  kBarrier,
  kClockSync,
};

std::string_view ProtocolOpName(ProtocolOp op);

struct ProtocolRecord {
  ProtocolOp op = ProtocolOp::kSend;
  /// Peer rank for send/recv; -1 for barriers.
  int peer = -1;
  int tag = 0;
  /// Wire words for send/recv; 0 for barriers.
  size_t words = 0;
  /// The worker's iteration counter (`Comm::MarkIteration`) when the op
  /// was issued.
  int64_t iteration = 0;
};

/// Thrown by `Network` blocking paths once a violation has been
/// diagnosed, to unwind every worker back to `Cluster::Run` (which
/// converts it into the returned `Status`). Never escapes `Cluster::Run`.
class ProtocolViolation : public std::exception {
 public:
  explicit ProtocolViolation(Status status) : status_(std::move(status)) {}

  const Status& status() const { return status_; }
  const char* what() const noexcept override {
    return status_.message().c_str();
  }

 private:
  Status status_;
};

/// The verifier. One instance per `Cluster`.
class ProtocolChecker {
 public:
  /// The tags queued in the (src, dst) mailbox, oldest first.
  using MailboxTags = std::function<std::vector<int>(int src, int dst)>;

  explicit ProtocolChecker(int num_workers);

  ProtocolChecker(const ProtocolChecker&) = delete;
  ProtocolChecker& operator=(const ProtocolChecker&) = delete;

  /// Resets per-run state (worker states, logs) at the top of
  /// `Cluster::Run`. CHECK-fails if a previous run's diagnosis was never
  /// consumed — a failed cluster is poisoned.
  void BeginRun();

  // --- Hooks, called by `Network` with the engine mutex held.

  void OnSend(int src, int dst, int tag, size_t words);
  /// `rank` blocks until a `tag` message from `src` is deliverable.
  void OnRecvPosted(int rank, int src, int tag);
  /// `rank`'s receive completed with a `words`-word message.
  void OnRecvMatched(int rank, size_t words);
  /// `rank` enters a barrier (`clock_sync`: `BarrierSyncClocks`).
  void OnBarrierEnter(int rank, bool clock_sync);
  /// `rank` left the barrier it entered.
  void OnBarrierDone(int rank);

  /// `Comm::MarkIteration` — advances the worker's iteration counter used
  /// to label log entries.
  void OnIteration(int rank);

  // --- Diagnoses, made with the engine mutex held. The first one wins.

  /// Every live worker is blocked and nothing can release any of them.
  /// A worker with no recorded wait has returned. `mailbox_tags` reads
  /// the network's mailboxes.
  void DiagnoseDeadlock(const MailboxTags& mailbox_tags);

  /// A clock-sync barrier completed with `count` message(s) still queued
  /// from `src` to `dst`, the oldest carrying `tag` and `words`.
  void FailPeerAsymmetry(int src, int dst, size_t count, int tag,
                         size_t words);

  /// True once a violation has been diagnosed (monotonic false -> true).
  bool failed() const { return failed_; }

  /// The first diagnosis, or OK.
  const Status& status() const { return status_; }

 private:
  enum class WorkerState : uint8_t {
    kRunning,
    kRecvWait,
    kBarrierWait,
  };

  struct Worker {
    WorkerState state = WorkerState::kRunning;
    /// Valid in kRecvWait: the awaited (src, tag).
    int wait_peer = -1;
    int wait_tag = 0;
    /// Valid in kBarrierWait: which barrier kind.
    bool wait_clock_sync = false;
    int64_t iteration = 0;
    /// Ordinal of the next op (log entries may have been evicted).
    uint64_t num_ops = 0;
    /// Bounded trailing window of this worker's ops.
    std::deque<ProtocolRecord> log;
  };

  Worker& WorkerFor(int rank) {
    return workers_[static_cast<size_t>(rank)];
  }
  const Worker& WorkerFor(int rank) const {
    return workers_[static_cast<size_t>(rank)];
  }

  void Record(int rank, ProtocolRecord record);

  /// Latches the first diagnosis.
  void Fail(std::string message);

  /// "-- worker 2 op trace (iter 3, 41 ops total, last 12 shown):" plus
  /// the trailing op log, one op per line.
  std::string DescribeWorker(int rank) const;

  const int num_workers_;
  std::vector<Worker> workers_;
  Status status_;
  bool failed_ = false;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_PROTOCOL_CHECK_H_
