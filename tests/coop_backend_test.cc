// The scheduler's two carriers (fibers, threads): the fiber backend must
// be a drop-in replacement for thread-per-worker — bit-identical
// simulated results at P >= 1024 on a contended event-engine fabric,
// exact equality with the thread backend on the same workload, protocol
// diagnosis intact — and both carriers share one wake model and one
// stall diagnosis (the scheduler aborts with a waiter dump the moment no
// worker can run and no event can be pumped, instead of waiting out a
// wall-clock watchdog).

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "common/logging.h"
#include "des/event_engine.h"
#include "des/scheduler.h"
#include "dl/grad_profile.h"
#include "simnet/cluster.h"
#include "sparse/sparse_vector.h"
#include "topo/topologies.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

/// The carriers a scheduler test runs on.
std::vector<ExecBackend> Carriers() {
  return {ExecBackend::kThread, ExecBackend::kFiber};
}

const char* CarrierName(ExecBackend backend) {
  return backend == ExecBackend::kFiber ? "fiber" : "thread";
}

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

uint64_t HashSparse(uint64_t h, const SparseVector& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    h = HashCombine(h, v.index(i));
    uint32_t bits;
    const float value = v.value(i);
    std::memcpy(&bits, &value, sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

struct RunOutcome {
  /// Worker 0's per-iteration reduced gradients (the synchronous methods
  /// replicate them, so one worker pins the math for all).
  std::vector<SparseVector> outputs;
  /// Every worker's final simulated clock (pins the timing model).
  std::vector<double> clocks;
  /// Every worker's accounting (messages, words, per-phase seconds).
  std::vector<CommStats> comm_stats;
  /// Hash over *all* workers' outputs — catches a replica diverging on a
  /// worker other than 0.
  uint64_t all_workers_hash = 0;
  /// The simulator's own cost and the messages it delivered, summed over
  /// workers.
  SchedulerStats scheduler;
  uint64_t messages_received = 0;
};

/// The two receive arms of the event engine: flat's closed-form charge
/// (flow key 0, no link state) and flows resolved through link servers
/// on an oversubscribed fat-tree (racks of 8, oversub 4.0, 2 ECMP cores
/// — the repo's standard contended fabric).
enum class Fabric { kFlat, kContended };

TopologySpec FabricSpec(Fabric fabric, int p) {
  if (fabric == Fabric::kFlat) return TopologySpec::Flat(p);
  return TopologySpec::FatTree(p, /*rack_size=*/8, /*oversubscription=*/4.0,
                               CostModel::Ethernet(), /*num_cores=*/2);
}

/// One measured run of a log-round method on `fabric` under the chosen
/// backend (SparDL with `num_teams` > 1 runs B-SAG).
RunOutcome MeasuredRun(ExecBackend backend, Fabric fabric,
                       const std::string& algo, int p, size_t n, size_t k,
                       int iterations, int num_teams = 1) {
  Cluster cluster(FabricSpec(fabric, p));
  cluster.set_exec_backend(backend);

  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  config.num_teams = num_teams;
  config.residual_mode = ResidualMode::kNone;
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] = std::move(*CreateAlgorithm(algo, config));
  }

  const ProfileGradientGenerator generator(n, /*seed=*/11);
  RunOutcome outcome;
  std::vector<std::vector<SparseVector>> per_worker(
      static_cast<size_t>(p));
  for (int iter = 0; iter < iterations; ++iter) {
    const Status status = cluster.Run([&](Comm& comm) {
      const SparseVector candidates =
          generator.Generate(comm.rank(), iter, k + k / 2);
      per_worker[static_cast<size_t>(comm.rank())].push_back(
          algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm,
                                                               candidates));
      comm.BarrierSyncClocks();
    });
    SPARDL_CHECK_OK(status);
  }
  outcome.outputs = std::move(per_worker[0]);
  uint64_t h = 0;
  for (int r = 0; r < p; ++r) {
    outcome.clocks.push_back(cluster.comm(r).sim_now());
    outcome.comm_stats.push_back(cluster.comm(r).stats());
    for (const SparseVector& v : per_worker[static_cast<size_t>(r)]) {
      h = HashSparse(h, v);
    }
  }
  outcome.all_workers_hash = h;
  outcome.scheduler = cluster.scheduler_stats();
  outcome.messages_received = cluster.TotalStats().messages_received;
  return outcome;
}

// The scale criterion: five fresh fiber-backend runs of a contended
// event-engine workload at P = 1024 must agree bit for bit (outputs and
// clocks). The fiber rounds run on every available core here, in an
// interleaving that differs run to run — any scheduler-order leak into
// the simulation would show up as a hash or clock mismatch.
TEST(CoopBackendTest, BitIdenticalAcrossRunsAtP1024) {
  constexpr int kWorkers = 1024;
  constexpr size_t kN = 100'000;
  constexpr size_t kK = 100;
  RunOutcome first;
  for (int run = 0; run < 5; ++run) {
    RunOutcome outcome =
        MeasuredRun(ExecBackend::kFiber, Fabric::kContended, "gtopk",
                    kWorkers, kN, kK, /*iterations=*/1);
    ASSERT_EQ(outcome.outputs.size(), 1u);
    EXPECT_GT(outcome.outputs[0].size(), 0u);
    if (run == 0) {
      first = std::move(outcome);
      continue;
    }
    EXPECT_EQ(outcome.all_workers_hash, first.all_workers_hash)
        << "run " << run;
    ASSERT_EQ(outcome.clocks.size(), first.clocks.size());
    for (int r = 0; r < kWorkers; ++r) {
      ASSERT_EQ(outcome.clocks[static_cast<size_t>(r)],
                first.clocks[static_cast<size_t>(r)])
          << "worker " << r << " clock diverged on run " << run;
    }
  }
}

/// Thread-vs-fiber equivalence on both receive arms: same workload, same
/// fabric, exact equality of every worker's reduced gradients and final
/// clock.
class BackendEquivalenceTest : public ::testing::TestWithParam<Fabric> {};

TEST_P(BackendEquivalenceTest, FiberMatchesThreadExactly) {
  constexpr int kWorkers = 16;
  constexpr size_t kN = 20'000;
  constexpr size_t kK = 200;
  const RunOutcome threads =
      MeasuredRun(ExecBackend::kThread, GetParam(), "spardl", kWorkers, kN,
                  kK, /*iterations=*/2);
  const RunOutcome fibers =
      MeasuredRun(ExecBackend::kFiber, GetParam(), "spardl", kWorkers, kN,
                  kK, /*iterations=*/2);
  EXPECT_EQ(fibers.all_workers_hash, threads.all_workers_hash);
  ASSERT_EQ(fibers.outputs.size(), threads.outputs.size());
  for (size_t i = 0; i < fibers.outputs.size(); ++i) {
    EXPECT_EQ(fibers.outputs[i], threads.outputs[i]) << "iteration " << i;
  }
  ASSERT_EQ(fibers.clocks.size(), threads.clocks.size());
  for (int r = 0; r < kWorkers; ++r) {
    EXPECT_EQ(fibers.clocks[static_cast<size_t>(r)],
              threads.clocks[static_cast<size_t>(r)])
        << "worker " << r;
  }
}

// The wake cost must not grow with P: a resolved flow re-checks only its
// receiver, so predicate evaluations per delivered message stay flat from
// P = 64 to P = 1024. A scheduler that rescans every waiter after each
// resolution makes this ratio grow with P (about 16x here). The thread
// carrier shares the wake model, so its cost is bounded the same way
// (checked at P = 64 only: one OS thread per worker), and its counters
// are live.
TEST(CoopBackendTest, WakeCostPerMessageIsScaleFree) {
  const auto evals_per_message = [](ExecBackend backend, int p) {
    const RunOutcome outcome =
        MeasuredRun(backend, Fabric::kContended, "spardl", p,
                    /*n=*/100'000, /*k=*/100, /*iterations=*/1);
    EXPECT_GT(outcome.messages_received, 0u);
    EXPECT_GE(outcome.scheduler.resumes, static_cast<uint64_t>(p));
    EXPECT_GT(outcome.scheduler.wakeups, 0u);
    EXPECT_GT(outcome.scheduler.engine_pumps, 0u);
    return static_cast<double>(outcome.scheduler.predicate_evals) /
           static_cast<double>(outcome.messages_received);
  };
  const double small = evals_per_message(ExecBackend::kFiber, 64);
  const double large = evals_per_message(ExecBackend::kFiber, 1024);
  const double threads = evals_per_message(ExecBackend::kThread, 64);
  EXPECT_LE(large, 2.0 * small)
      << "evals/message: " << small << " at P=64, " << large
      << " at P=1024";
  EXPECT_LE(threads, 2.0 * small)
      << "evals/message at P=64: " << small << " on fibers, " << threads
      << " on threads";
}

// The instantiation and parameter names predate the single engine and are
// kept so the test ids stay stable: "Busy" is the flat arm, "Event" the
// contended one.
INSTANTIATE_TEST_SUITE_P(Engines, BackendEquivalenceTest,
                         ::testing::Values(Fabric::kFlat,
                                           Fabric::kContended),
                         [](const auto& param_info) {
                           return param_info.param == Fabric::kContended
                                      ? "Event"
                                      : "Busy";
                         });

/// The CPUs the fiber scheduler may spread a round over.
int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

// Parallel fiber rounds must not leak into the simulation: twenty fiber
// runs, each in its own interleaving of the carriers, reproduce the
// thread carrier's outputs, clocks and accounting bit for bit — on flat
// P = 14 B-SAG (d = 7, the paper's per-update setting) and on a contended
// fat-tree at P = 64, where every stall pumps the engine.
TEST(CoopBackendTest, FiberRepeatsMatchThreadsBitForBit) {
  struct Case {
    const char* name;
    Fabric fabric;
    int workers;
    size_t n;
    size_t k;
    int teams;
  };
  const Case cases[] = {
      {"flat P=14 d=7", Fabric::kFlat, 14, 60'000, 600, 7},
      {"fat-tree P=64", Fabric::kContended, 64, 100'000, 100, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const RunOutcome threads =
        MeasuredRun(ExecBackend::kThread, c.fabric, "spardl", c.workers, c.n,
                    c.k, /*iterations=*/2, c.teams);
    for (int run = 0; run < 20; ++run) {
      const RunOutcome fibers =
          MeasuredRun(ExecBackend::kFiber, c.fabric, "spardl", c.workers,
                      c.n, c.k, /*iterations=*/2, c.teams);
      ASSERT_EQ(fibers.all_workers_hash, threads.all_workers_hash)
          << "run " << run;
      ASSERT_EQ(fibers.outputs, threads.outputs) << "run " << run;
      ASSERT_EQ(fibers.clocks, threads.clocks) << "run " << run;
      ASSERT_EQ(fibers.comm_stats, threads.comm_stats) << "run " << run;
    }
  }
}

// The round counters are live, and the paper's per-update setting (flat
// P = 14, d = 7) shares its rounds among carriers whenever the process
// may use two CPUs.
TEST(CoopBackendTest, FlatP14FiberRoundsRunInParallel) {
  constexpr int kWorkers = 14;
  const RunOutcome outcome =
      MeasuredRun(ExecBackend::kFiber, Fabric::kFlat, "spardl", kWorkers,
                  /*n=*/60'000, /*k=*/600, /*iterations=*/1, /*num_teams=*/7);
  const SchedulerStats& stats = outcome.scheduler;
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GE(stats.resumes, stats.rounds);
  EXPECT_LE(stats.parallel_rounds, stats.rounds);
  const int cpus = AffinityCpus();
  EXPECT_EQ(stats.carriers,
            static_cast<uint64_t>(std::min(kWorkers, cpus)));
  if (cpus < 2) GTEST_SKIP() << "one CPU: every round runs inline";
  EXPECT_GT(stats.parallel_rounds, 0u);
}

// A protocol diagnosis at the stall releases every waiter to unwind. Here
// all P = 8 workers block on a mismatched tag, so the round after the
// diagnosis resumes all of them at once: each throws `ProtocolViolation`
// inside its own fiber, on several carriers when two CPUs are available,
// and the run still ends in the diagnosis.
TEST(CoopBackendTest, ProtocolViolationUnwindsFibersOnSeveralCarriers) {
  constexpr int kWorkers = 8;
  for (const Fabric fabric : {Fabric::kFlat, Fabric::kContended}) {
    SCOPED_TRACE(fabric == Fabric::kFlat ? "flat" : "contended");
    Cluster cluster(FabricSpec(fabric, kWorkers));
    cluster.set_exec_backend(ExecBackend::kFiber);
    cluster.EnableProtocolCheck();
    const Status status = cluster.Run([](Comm& comm) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.Send(next, Payload(std::vector<float>{1.0f}), /*tag=*/7);
      (void)comm.Recv(prev, /*tag=*/9);  // bug under test: expects tag 9
      comm.BarrierSyncClocks();
    });
    ASSERT_FALSE(status.ok());
    const std::string message = status.ToString();
    EXPECT_NE(message.find("tag mismatch"), std::string::npos) << message;
    // One round runs every worker into its wait, the next unwinds them.
    const SchedulerStats& stats = cluster.scheduler_stats();
    EXPECT_EQ(stats.rounds, 2u);
    EXPECT_EQ(stats.resumes, 2u * kWorkers);
    EXPECT_EQ(stats.parallel_rounds, AffinityCpus() >= 2 ? 2u : 0u);
  }
}

/// The protocol verifier's negative path must diagnose divergence on both
/// backends (the fiber path funnels the violation out of the scheduler
/// loop, not out of a dying thread).
class BackendProtocolTest : public ::testing::TestWithParam<ExecBackend> {};

TEST_P(BackendProtocolTest, TagMismatchIsDiagnosed) {
  Cluster cluster(TopologySpec::Flat(2, CostModel{1e-3, 1e-6}));
  cluster.set_exec_backend(GetParam());
  cluster.EnableProtocolCheck();
  cluster.network().set_recv_timeout_seconds(20.0);
  const Status status = cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(std::vector<float>{1.0f}), /*tag=*/7);
      (void)comm.Recv(1, /*tag=*/7);
    } else {
      comm.Send(0, Payload(std::vector<float>{1.0f}), /*tag=*/7);
      (void)comm.Recv(0, /*tag=*/9);  // bug under test: expects tag 9
    }
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("tag mismatch"), std::string::npos) << message;
  EXPECT_NE(message.find("op trace"), std::string::npos) << message;
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendProtocolTest,
                         ::testing::Values(ExecBackend::kThread,
                                           ExecBackend::kFiber),
                         [](const auto& param_info) {
                           return param_info.param == ExecBackend::kFiber
                                      ? "fiber"
                                      : "thread";
                         });

// Without the verifier, a collective deadlock must die *immediately*
// with the scheduler's waiter dump — every worker blocked, nothing
// pumpable — on either carrier, rather than waiting out the threads'
// wall-clock backstop (left at its default here).
TEST(CoopBackendDeathTest, DeadlockDiagnosedWithWaiterDump) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto spec = TopologySpec::Parse("fattree:2x2", 2);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  for (const ExecBackend backend : Carriers()) {
    SCOPED_TRACE(CarrierName(backend));
    EXPECT_DEATH(
        {
          Cluster cluster(*spec);
          cluster.set_exec_backend(backend);
          (void)cluster.Run([](Comm& comm) {
            // Both workers receive, nobody sends.
            (void)comm.Recv(1 - comm.rank(), /*tag=*/0);
          });
        },
        "collective deadlock\\?\n  worker 0: Recv dst=0 src=1 tag=0");
  }
}

// The closed-form arm (flat: no flows, nothing to pump) must reach the
// same diagnosis.
TEST(CoopBackendDeathTest, DeadlockDiagnosedOnClosedFormFabric) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  for (const ExecBackend backend : Carriers()) {
    SCOPED_TRACE(CarrierName(backend));
    EXPECT_DEATH(
        {
          Cluster cluster(TopologySpec::Flat(2, CostModel{1e-3, 1e-6}));
          cluster.set_exec_backend(backend);
          (void)cluster.Run([](Comm& comm) {
            (void)comm.Recv(1 - comm.rank(), /*tag=*/0);
          });
        },
        "collective deadlock");
  }
}

// The thread carrier's wall-clock backstop: while a peer runs without
// ever blocking, the stall step never comes, so only the per-wait bound
// can end the receive. Should the bound fail, the peer exits after 10 s
// and the stall dump fires instead, which this regex rejects.
TEST(ThreadBackendDeathTest, WaitTimesOutWhilePeerNeverBlocks) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Cluster cluster(TopologySpec::Flat(2, CostModel{1e-3, 1e-6}));
        cluster.set_exec_backend(ExecBackend::kThread);
        cluster.network().set_recv_timeout_seconds(0.2);
        (void)cluster.Run([](Comm& comm) {
          if (comm.rank() == 0) {
            (void)comm.Recv(1, /*tag=*/0);
          } else {
            std::this_thread::sleep_for(std::chrono::seconds(10));
          }
        });
      },
      "Recv dst=0 src=1 tag=0 timed out after 0.2s of wall time");
}

// Worker 1 must not change the flag before worker 0 waits on it, or the
// wait would return without blocking: poll (under the engine mutex, which
// guards the counters) until worker 0 has evaluated its predicate once
// and so is parked. On fibers worker 0 is taken first: on one carrier
// the poll passes at once, on several worker 0 runs on its own.
void AwaitFirstWait(const Scheduler& scheduler, const EventEngine& engine) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(engine.mu());
      if (scheduler.stats().predicate_evals > 0) return;
    }
    std::this_thread::yield();
  }
}

// The notify contract, exercised on the scheduler directly: a waiter is
// re-checked only after a `Notify` naming it, on either carrier.
TEST(CoopSchedulerTest, NotifiedWaiterWakes) {
  for (const ExecBackend backend : Carriers()) {
    SCOPED_TRACE(CarrierName(backend));
    const FlatTopology flat(2, CostModel::Free());
    EventEngine engine(flat);
    Scheduler scheduler;
    bool flag = false;
    scheduler.Run(backend, 2, engine, [&](int rank) {
      if (rank == 0) {
        std::unique_lock<std::mutex> lock(engine.mu());
        scheduler.Wait(0, lock, [&] { return flag; }, /*timeout_seconds=*/60,
                       [] { return std::string("waiting on flag"); });
      } else {
        AwaitFirstWait(scheduler, engine);
        std::lock_guard<std::mutex> lock(engine.mu());
        flag = true;
        scheduler.Notify(0);
      }
    });
    EXPECT_TRUE(flag);
    EXPECT_EQ(scheduler.stats().wakeups, 1u);
    EXPECT_EQ(scheduler.stats().resumes, 3u);
    EXPECT_EQ(scheduler.stats().predicate_evals, 3u);
  }
}

// A state change nobody notifies about must not pass for a deadlock: at
// the stall, the scheduler finds the waiter whose predicate already holds
// and names the missed notify. On threads the stall is reached when the
// notifier exits, leaving the waiter the only live worker.
TEST(CoopBackendDeathTest, MissedNotifyIsDiagnosedAsLostWakeup) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  for (const ExecBackend backend : Carriers()) {
    SCOPED_TRACE(CarrierName(backend));
    EXPECT_DEATH(
        {
          const FlatTopology flat(2, CostModel::Free());
          EventEngine engine(flat);
          Scheduler scheduler;
          bool flag = false;
          scheduler.Run(backend, 2, engine, [&](int rank) {
            if (rank == 0) {
              std::unique_lock<std::mutex> lock(engine.mu());
              scheduler.Wait(0, lock, [&] { return flag; },
                             /*timeout_seconds=*/60,
                             [] { return std::string("waiting on flag"); });
            } else {
              AwaitFirstWait(scheduler, engine);
              std::lock_guard<std::mutex> lock(engine.mu());
              flag = true;  // bug under test: no scheduler.Notify(0)
            }
          });
        },
        "lost wakeup: worker 0 ready but never notified");
  }
}

}  // namespace
}  // namespace spardl
