// SPMD protocol-verifier tests: deliberately divergent worker programs
// (mismatched tag, unequal round counts, wrong team size, mixed barrier
// kinds, a message nobody receives) must come back from `Cluster::Run` as
// a diagnostic `Status` that names the divergence class and the involved
// workers' op traces — never by dying in the scheduler's stall dump, which
// shows only each worker's pending wait. Each run keeps a short wall-clock
// wait bound anyway, so a detector regression fails the test loudly
// instead of stalling the suite.

#include "simnet/protocol_check.h"

#include <sys/resource.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "simnet/cluster.h"
#include "topo/topology.h"
#include "topo/topology_spec.h"

// Sanitizers inflate memory, and TSan compiles the fiber carrier out.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPARDL_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPARDL_TEST_SANITIZED 1
#endif
#endif

namespace spardl {
namespace {

/// The engine's two receive arms: flat's closed-form charge (deliverable
/// at `Post`) and flows that wait for the fat-tree's link servers to
/// resolve them.
enum class Fabric { kFlat, kContended };

/// Every divergence case runs on both receive arms, so the stall-time
/// diagnosis and the unwinding of every waiter are covered whether the
/// blocked receive waits on a missing packet or on an unresolved flow
/// (the `_fiber` twins repeat both on the cooperative backend).
class ProtocolCheckTest : public ::testing::TestWithParam<Fabric> {
 protected:
  static constexpr int kWorkers = 4;

  TopologySpec FabricSpec() const {
    if (GetParam() == Fabric::kFlat) {
      return TopologySpec::Flat(kWorkers, CostModel{1e-3, 1e-6});
    }
    auto spec = TopologySpec::Parse("fattree:2x2x2", kWorkers);
    SPARDL_CHECK(spec.ok()) << spec.status().ToString();
    return *spec;
  }

  /// A cluster with checking on and a short wall-clock watchdog, so a
  /// missed detection aborts in seconds, not minutes.
  std::unique_ptr<Cluster> MakeCluster() {
    auto cluster = std::make_unique<Cluster>(FabricSpec());
    cluster->EnableProtocolCheck();
    cluster->network().set_recv_timeout_seconds(20.0);
    return cluster;
  }
};

Payload OneWord() { return Payload(std::vector<float>{1.0f}); }

TEST_P(ProtocolCheckTest, MatchingProgramPasses) {
  auto cluster = MakeCluster();
  // Two iterations of a ring shift plus both barrier kinds: everything a
  // conforming SPMD program does, to pin zero false positives.
  const Status status = cluster->Run([](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int iter = 0; iter < 2; ++iter) {
      comm.Send(next, Payload(std::vector<float>{1.0f, 2.0f}), /*tag=*/iter);
      (void)comm.Recv(prev, /*tag=*/iter);
      comm.Barrier();
      comm.MarkIteration();
      comm.BarrierSyncClocks();
    }
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_P(ProtocolCheckTest, MismatchedTagIsDiagnosed) {
  auto cluster = MakeCluster();
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 0) {
      // Bug under test: sender stamps tag 7, receiver expects tag 9.
      comm.Send(1, OneWord(), /*tag=*/7);
      (void)comm.Recv(1, /*tag=*/7);
    } else if (comm.rank() == 1) {
      comm.Send(0, OneWord(), /*tag=*/7);
      (void)comm.Recv(0, /*tag=*/9);
    }
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  // The diagnosis names the tag mismatch and prints both involved
  // workers' op traces.
  EXPECT_NE(message.find("tag mismatch"), std::string::npos) << message;
  EXPECT_NE(message.find("worker 0 op trace"), std::string::npos) << message;
  EXPECT_NE(message.find("worker 1 op trace"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, UnequalRoundCountsAreDiagnosed) {
  auto cluster = MakeCluster();
  // Rank 0 believes the exchange runs 3 rounds; everyone else stops after
  // 2 — the "unequal SRS round count" divergence. Rank 0's third recv can
  // never be satisfied once its peer finished.
  const Status status = cluster->Run([](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    const int rounds = comm.rank() == 0 ? 3 : 2;
    for (int r = 0; r < rounds; ++r) {
      comm.Send(next, OneWord(), /*tag=*/r);
      (void)comm.Recv(prev, /*tag=*/r);
    }
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("peer finished early"), std::string::npos)
      << message;
  EXPECT_NE(message.find("op trace"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, WrongTeamSizeIsDiagnosed) {
  auto cluster = MakeCluster();
  // Rank 0 plans teams of 4 (partner = rank 2); everyone else plans teams
  // of 2 (partner = neighbour) — the "wrong team size" divergence: rank 3
  // waits on a partner that is sending elsewhere.
  const Status status = cluster->Run([](Comm& comm) {
    const int team = comm.rank() == 0 ? 4 : 2;
    const int partner = comm.rank() ^ (team / 2);
    comm.Send(partner, OneWord());
    (void)comm.Recv(partner);
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("peer finished early"), std::string::npos)
      << message;
  EXPECT_NE(message.find("op trace"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, MixedBarrierKindsFailImmediately) {
  // "Immediately" means at the first stall: the mismatch is diagnosed
  // once every worker is blocked, not when the second kind is entered.
  auto cluster = MakeCluster();
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Barrier();
    } else {
      comm.BarrierSyncClocks();
    }
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("collective mismatch"), std::string::npos)
      << message;
  EXPECT_NE(message.find("op trace"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, UnconsumedSendAtClockSyncIsDiagnosed) {
  auto cluster = MakeCluster();
  // A peer asymmetry that never blocks anyone: rank 0 sends a message
  // nobody receives, then all ranks reach the iteration boundary. Plain
  // FIFO matching would only surface this one iteration later (or as a
  // leaked mailbox CHECK at teardown); the checker flags it at the
  // completed clock-sync barrier.
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 0) comm.Send(1, OneWord(), /*tag=*/3);
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("peer asymmetry"), std::string::npos) << message;
  EXPECT_NE(message.find("unmatched"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, FailedRunPoisonsTheCluster) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto cluster = MakeCluster();
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 0) comm.Send(1, OneWord(), /*tag=*/3);
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  // The divergent run was unwound mid-collective; the cluster's simulated
  // state is garbage and reuse must refuse loudly.
  ASSERT_DEATH((void)cluster->Run([](Comm&) {}),
               "Run after a protocol violation");
}

// The instantiation and parameter names predate the single engine and are
// kept so the test ids stay stable: "BusyUntil" is the flat arm,
// "EventOrdered" the contended one.
INSTANTIATE_TEST_SUITE_P(Engines, ProtocolCheckTest,
                         ::testing::Values(Fabric::kFlat, Fabric::kContended),
                         [](const auto& suite_info) {
                           return suite_info.param == Fabric::kFlat
                                      ? std::string("BusyUntil")
                                      : std::string("EventOrdered");
                         });

// The checker keeps O(P) state: a conforming P = 1024 fiber run with
// checking on stays far below what a P^2 per-pair shadow of the mailboxes
// costs (hundreds of MB at this P).
TEST(ProtocolCheckerMemoryTest, CheckedRunAtP1024StaysSmall) {
#ifdef SPARDL_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer builds inflate RSS and TSan has no fibers";
#else
  constexpr int kWorkers = 1024;
  Cluster cluster(TopologySpec::Flat(kWorkers, CostModel{1e-3, 1e-6}));
  cluster.set_exec_backend(ExecBackend::kFiber);
  cluster.EnableProtocolCheck();
  const Status status = cluster.Run([](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.Send(next, OneWord());
    (void)comm.Recv(prev);
    comm.Barrier();
    comm.MarkIteration();
    comm.BarrierSyncClocks();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_LT(usage.ru_maxrss, 256L * 1024) << "peak RSS in KiB";
#endif
}

/// Non-cluster unit coverage of the checker's bookkeeping and latch.
std::vector<int> NoQueuedTags(int, int) { return {}; }

TEST(ProtocolCheckerUnitTest, StatusIsOkUntilDiagnosis) {
  ProtocolChecker checker(2);
  checker.BeginRun();
  checker.OnSend(0, 1, /*tag=*/0, /*words=*/4);
  checker.OnRecvPosted(1, 0, /*tag=*/0);
  checker.OnRecvMatched(1, /*words=*/4);
  for (int rank = 0; rank < 2; ++rank) {
    checker.OnBarrierEnter(rank, /*clock_sync=*/true);
    checker.OnIteration(rank);
  }
  for (int rank = 0; rank < 2; ++rank) checker.OnBarrierDone(rank);
  EXPECT_FALSE(checker.failed());
  EXPECT_TRUE(checker.status().ok());
  // Only the stall diagnoses: worker 1 then waits on worker 0, which has
  // no recorded wait, so it returned.
  checker.OnRecvPosted(1, 0, /*tag=*/5);
  checker.DiagnoseDeadlock(NoQueuedTags);
  ASSERT_TRUE(checker.failed());
  const std::string message = checker.status().ToString();
  EXPECT_NE(message.find("peer finished early"), std::string::npos)
      << message;
  EXPECT_NE(message.find("worker 1 op trace (iter 1, 3 ops total"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("#1 recv(src=0, tag=0, words=4) @iter0"),
            std::string::npos)
      << message;
}

TEST(ProtocolCheckerUnitTest, FirstDiagnosisWins) {
  ProtocolChecker checker(2);
  checker.BeginRun();
  // Worker 1 waits on tag 9 while worker 0's mailbox to it holds tag 7;
  // worker 0 returned -> a tag mismatch.
  checker.OnSend(0, 1, /*tag=*/7, /*words=*/1);
  checker.OnRecvPosted(1, 0, /*tag=*/9);
  checker.DiagnoseDeadlock([](int src, int dst) {
    return src == 0 && dst == 1 ? std::vector<int>{7} : std::vector<int>{};
  });
  ASSERT_TRUE(checker.failed());
  const std::string first = checker.status().ToString();
  EXPECT_NE(first.find("tag mismatch"), std::string::npos) << first;
  EXPECT_NE(first.find("tag(s) [7]"), std::string::npos) << first;
  // Later diagnoses must not replace the latched one.
  checker.FailPeerAsymmetry(0, 1, /*count=*/1, /*tag=*/7, /*words=*/1);
  checker.DiagnoseDeadlock(NoQueuedTags);
  EXPECT_EQ(checker.status().ToString(), first);
}

TEST(ProtocolCheckerUnitTest, BeginRunAfterFailureDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ProtocolChecker checker(2);
  checker.BeginRun();
  checker.OnRecvPosted(1, 0, /*tag=*/0);  // peer returned, recv unsatisfiable
  checker.DiagnoseDeadlock(NoQueuedTags);
  ASSERT_TRUE(checker.failed());
  ASSERT_DEATH(checker.BeginRun(), "reused after a violation");
}

}  // namespace
}  // namespace spardl
