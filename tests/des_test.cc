// The simnet v3 event-ordered engine (src/des): LinkServer fairness and
// deterministic tie-breaking, exact agreement with the analytic
// cut-through charge on uncontended paths, bit-for-bit closed-form flat
// charging, and the headline regression — run-to-run determinism of
// contended fat-tree times.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "des/event_engine.h"
#include "simnet/cluster.h"
#include "test_util.h"
#include "topo/topologies.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

TEST(EventQueueTest, OrdersByTimeThenKey) {
  EventQueue queue;
  queue.Push(2.0, 1);
  queue.Push(1.0, 9);
  queue.Push(1.0, 3);
  queue.Push(3.0, 0);
  ASSERT_EQ(queue.Size(), 4u);
  auto event = queue.PopEarliest();
  EXPECT_EQ(event.time, 1.0);
  EXPECT_EQ(event.flow, 3u);  // equal times break by flow key
  event = queue.PopEarliest();
  EXPECT_EQ(event.time, 1.0);
  EXPECT_EQ(event.flow, 9u);
  event = queue.PopEarliest();
  EXPECT_EQ(event.time, 2.0);
  event = queue.PopEarliest();
  EXPECT_EQ(event.time, 3.0);
  EXPECT_TRUE(queue.Empty());
}

TEST(LinkServerTest, BackToBackHeadersQueueOnBusyLink) {
  LinkServer link;
  // First header: leaves at 0 + alpha, link busy until alpha + serialize.
  EXPECT_DOUBLE_EQ(link.Serve(0.0, 0.5, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(link.busy_until(), 2.5);
  // Second header arriving earlier than busy-until starts at busy-until.
  EXPECT_DOUBLE_EQ(link.Serve(1.0, 0.5, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(link.busy_until(), 5.0);
  // A header arriving after the link went idle is not delayed.
  EXPECT_DOUBLE_EQ(link.Serve(10.0, 0.5, 2.0), 10.5);
  link.Reset();
  EXPECT_DOUBLE_EQ(link.busy_until(), 0.0);
}

// Two same-time flows sharing one star uplink must be served in flow-key
// order (sender's send order), each getting exactly one serialization
// window — fair FIFO queueing, no double-charging, no overlap.
TEST(LinkServerFairnessTest, SameTimeFlowsSerializeInSendOrder) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double serialize = cm.beta * static_cast<double>(words);
  Cluster cluster(TopologySpec::Star(3, cm));
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(std::vector<float>(words, 1.0f)));
      comm.Send(2, Payload(std::vector<float>(words, 1.0f)));
    } else if (comm.rank() == 1) {
      comm.RecvAs<std::vector<float>>(0);
      // First flow off the uplink (key order: dst 1 before dst 2):
      // alpha + one serialization.
      EXPECT_DOUBLE_EQ(comm.sim_now(), cm.alpha + serialize);
    } else {
      comm.RecvAs<std::vector<float>>(0);
      // Second flow's header leaves the shared uplink only once the first
      // body crossed it (alpha/2 + serialize), then pays the remaining
      // uplink + downlink latency and its own serialization:
      // (alpha/2 + serialize) + alpha/2 + alpha/2 + serialize.
      EXPECT_DOUBLE_EQ(comm.sim_now(), 1.5 * cm.alpha + 2.0 * serialize);
    }
  });
}

// The flow with the earlier logical send time gets a shared link first,
// whatever the order of posting and receiving. Two cross-rack flows share
// the rack-0 trunk (and the rack-1 return trunk): B (0 -> 2) is posted
// first by rank order on fibers but stamped later, and its receiver waits
// first; A (1 -> 3) is stamped earlier. Both carriers must charge the
// same exact times.
TEST(LinkServerFairnessTest, EarlierSendTimeWinsRegardlessOfChargeOrder) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double s_trunk = 4.0 * cm.beta * static_cast<double>(words);
  const TopologySpec spec =
      TopologySpec::FatTree(4, /*rack_size=*/2, /*oversub=*/4.0, cm);
  for (const ExecBackend backend :
       {ExecBackend::kThread, ExecBackend::kFiber}) {
    Cluster cluster(spec);
    cluster.set_exec_backend(backend);
    double early_arrival = 0.0;
    double late_arrival = 0.0;
    // Flow B: 0 -> 2 injected at t = alpha, well inside A's trunk
    // serialization window. Flow A: 1 -> 3 injected at t = 0.
    ASSERT_TRUE(cluster
                    .Run([&](Comm& comm) {
                      switch (comm.rank()) {
                        case 0:
                          comm.Compute(cm.alpha);
                          comm.Send(2, Payload(std::vector<float>(words)));
                          break;
                        case 1:
                          comm.Send(3, Payload(std::vector<float>(words)));
                          break;
                        case 2:
                          comm.RecvAs<std::vector<float>>(0);
                          late_arrival = comm.sim_now();
                          break;
                        default:
                          comm.RecvAs<std::vector<float>>(1);
                          early_arrival = comm.sim_now();
                      }
                    })
                    .ok());
    const char* carrier = backend == ExecBackend::kFiber ? "fiber" : "thread";
    // A rides an idle fabric: 4 hops of alpha/2 plus the trunk bottleneck.
    EXPECT_DOUBLE_EQ(early_arrival, 2.0 * cm.alpha + s_trunk) << carrier;
    // B's header reaches the trunk while A's body crosses it, waits out
    // A's occupancy on both trunks, then pays its own bottleneck:
    // (alpha + s_trunk) + alpha/2 [up-trunk] ... + alpha/2 [down-trunk]
    // + alpha/2 [downlink] + s_trunk = 2.5*alpha + 2*s_trunk.
    EXPECT_DOUBLE_EQ(late_arrival, 2.5 * cm.alpha + 2.0 * s_trunk) << carrier;
  }
}

// Every wait goes through the scheduler of a running cluster: a receive
// driven from outside `Cluster::Run` dies at once instead of hanging.
TEST(UnscheduledWaitDeathTest, WaitOutsideRunDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Network network(2, CostModel::Free());
        Comm receiver(&network, 1);
        receiver.RecvAs<int64_t>(0);
      },
      "Recv dst=1 src=0 tag=0 waits outside Cluster::Run");
}

/// Runs `rounds` rounds of the neighbour permutation r -> r+1 (each
/// worker sends one message and receives one, after staggered compute;
/// odd ranks also compute past the message's arrival before receiving)
/// on `spec`, with worker 2 slowed down by 1.5x, and checks every
/// delivery time exactly against `oracle(topology, src, dst, words,
/// sent_at, receiver_now)`. Rounds end in a clock sync, so no flow finds
/// a link still busy with the previous round's traffic.
template <typename Oracle>
void ExpectPermutationMatchesOracle(const TopologySpec& spec, int rounds,
                                    const Oracle& oracle) {
  const int p = spec.num_workers;
  Cluster cluster(spec);
  cluster.network().SetWorkerSlowdown(2, 1.5);
  std::vector<double> sent_at(static_cast<size_t>(p));
  for (int round = 0; round < rounds; ++round) {
    cluster.Run([&](Comm& comm) {
      const int dst = (comm.rank() + 1) % p;
      const int src = (comm.rank() + p - 1) % p;
      comm.Compute(1e-4 * static_cast<double>(comm.rank() + round));
      const size_t words = 100 + 10 * static_cast<size_t>(comm.rank()) +
                           50 * static_cast<size_t>(round);
      sent_at[static_cast<size_t>(comm.rank())] = comm.sim_now();
      comm.Send(dst, Payload(std::vector<float>(words, 1.0f)));
      if (comm.rank() % 2 == 1) comm.Compute(5e-3);
      const double receiver_now = comm.sim_now();
      const size_t src_words = 100 + 10 * static_cast<size_t>(src) +
                               50 * static_cast<size_t>(round);
      comm.RecvAs<std::vector<float>>(src);
      // The sender's slot was written before its Post, which the
      // receive synchronizes with.
      EXPECT_EQ(comm.sim_now(),
                oracle(cluster.topology(), src, comm.rank(), src_words,
                       sent_at[static_cast<size_t>(src)], receiver_now))
          << spec.Describe() << " round " << round << " worker "
          << comm.rank();
      comm.BarrierSyncClocks();
    });
  }
}

// Uncontended permutation traffic (each worker sends to exactly one
// distinct peer, and no two flows share a link) must charge exactly what
// the retired busy-until engine charged on such routes, which is the
// analytic cut-through sum: the header pays every hop's (NodeScale'd)
// alpha in order, the body one bottleneck serialization, and traversal
// overlaps the receiver's compute.
TEST(EngineEquivalenceTest, UncontendedPathsMatchBusyUntilExactly) {
  const CostModel cm{1e-3, 1e-6};
  const auto uncontended = [](const Topology& topology, int src, int dst,
                              size_t words, double sent_at,
                              double receiver_now) {
    std::vector<LinkId> path;
    topology.Route(src, dst, &path);
    double head = sent_at;
    double bottleneck = 0.0;
    for (const LinkId id : path) {
      const LinkInfo link = topology.link_info(id);  // NodeScale folded in
      head += link.alpha;
      bottleneck =
          std::max(bottleneck, link.beta * static_cast<double>(words));
    }
    return std::max(receiver_now, head + bottleneck);
  };
  // r -> r+1 is link-disjoint on each: private star up/downlinks; on the
  // 2-rack fat tree the cross-rack flows 2->3 and 5->0 use opposite trunk
  // pairs; one ring segment per flow; on the 3x2 torus the two
  // row-wrapping flows take distinct column cables.
  for (const TopologySpec& spec :
       {TopologySpec::Star(6, cm),
        TopologySpec::FatTree(6, /*rack_size=*/3, /*oversub=*/4.0, cm),
        TopologySpec::Ring(6, cm), TopologySpec::Torus(3, 2, cm)}) {
    ExpectPermutationMatchesOracle(spec, /*rounds=*/3, uncontended);
  }
}

// Flat runs through the same engine as every other fabric, but injects
// no flows: each delivery is the paper's closed form, bit for bit —
// `max(sent_at, receiver_now) + (alpha + beta*words) * NodeScale(dst)`,
// including the straggler's scaled ingress — and no link state is
// touched.
TEST(EngineEquivalenceTest, FlatUnderEventEngineStaysLegacyExact) {
  const CostModel cm = CostModel::Ethernet();
  const TopologySpec spec = TopologySpec::Flat(6, cm);
  ExpectPermutationMatchesOracle(
      spec, /*rounds=*/3,
      [&cm](const Topology& topology, int src, int dst, size_t words,
            double sent_at, double receiver_now) {
        (void)src;
        const double ready = sent_at > receiver_now ? sent_at : receiver_now;
        return ready + cm.MessageSeconds(words) * topology.NodeScale(dst);
      });

  Cluster cluster(spec);
  cluster.Run([](Comm& comm) {
    comm.Send((comm.rank() + 1) % comm.size(), Payload(int64_t{1}));
    comm.RecvAs<int64_t>((comm.rank() + comm.size() - 1) % comm.size());
  });
  for (LinkId id = 0; id < cluster.topology().num_links(); ++id) {
    EXPECT_EQ(cluster.network().link_usage(id).messages, 0u) << id;
  }
}

// One full contended run on the ISSUE's reference fabric: returns every
// worker's final clock plus the makespan.
std::vector<double> ContendedFatTreeRun(int iterations) {
  const int p = 16;
  auto parsed = TopologySpec::Parse("fattree:4x8x2", p);
  SPARDL_CHECK(parsed.ok());
  Cluster cluster(*parsed);

  AlgorithmConfig config;
  config.n = 6000;
  config.k = 600;
  config.num_workers = p;
  config.num_teams = 4;
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] =
        std::move(*CreateAlgorithm("spardl", config));
  }
  for (int iter = 0; iter < iterations; ++iter) {
    cluster.Run([&](Comm& comm) {
      // Per-rank staggered compute widens the thread-interleaving races
      // a charge-order-dependent engine would be sensitive to.
      comm.Compute(1e-5 * static_cast<double>(comm.rank() % 5));
      std::vector<float> grad = testing::RandomGradient(
          6000, 31 + static_cast<uint64_t>(comm.rank()) +
                    1000 * static_cast<uint64_t>(iter));
      algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      // Direct cross-rack fan-in on top of the algorithm traffic, to
      // guarantee trunk contention every iteration.
      const int peer = (comm.rank() + 4) % p;
      comm.Send(peer, Payload(std::vector<float>(
                          500 + 100 * static_cast<size_t>(comm.rank() % 3),
                          1.0f)),
                /*tag=*/99);
      comm.RecvAs<std::vector<float>>((comm.rank() + p - 4) % p, /*tag=*/99);
    });
  }
  std::vector<double> times;
  for (int r = 0; r < p; ++r) times.push_back(cluster.comm(r).sim_now());
  times.push_back(cluster.MaxSimSeconds());
  return times;
}

// The acceptance criterion: >= 5 repeated runs of a contended
// fattree:4x8x2 workload produce bit-identical per-worker times. (Repeat
// the whole cluster lifecycle so thread scheduling differs arbitrarily
// between runs.)
TEST(EventOrderedDeterminismTest, ContendedFatTreeTimesAreBitIdentical) {
  const std::vector<double> reference = ContendedFatTreeRun(/*iterations=*/3);
  double contended_makespan = reference.back();
  EXPECT_GT(contended_makespan, 0.0);
  for (int run = 1; run < 5; ++run) {
    const std::vector<double> repeat = ContendedFatTreeRun(/*iterations=*/3);
    ASSERT_EQ(repeat.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(repeat[i], reference[i])  // exact, not EXPECT_DOUBLE_EQ
          << "run " << run << " entry " << i;
    }
  }
}

// Determinism must survive ResetClocksAndStats (warm-up/measured phase
// structure of every bench).
TEST(EventOrderedDeterminismTest, SurvivesClockReset) {
  auto one = [] {
    auto parsed = TopologySpec::Parse("star", 4, CostModel{1e-3, 1e-6});
    SPARDL_CHECK(parsed.ok());
    Cluster cluster(*parsed);
    for (int phase = 0; phase < 2; ++phase) {
      cluster.Run([&](Comm& comm) {
        if (comm.rank() == 0) {
          for (int dst = 1; dst < 4; ++dst) {
            comm.Send(dst, Payload(std::vector<float>(5'000, 1.0f)));
          }
        } else {
          comm.Compute(1e-4 * static_cast<double>(comm.rank()));
          comm.RecvAs<std::vector<float>>(0);
        }
      });
      if (phase == 0) cluster.ResetClocksAndStats();
    }
    return cluster.MaxSimSeconds();
  };
  const double first = one();
  for (int run = 1; run < 3; ++run) EXPECT_EQ(one(), first);
}

// The engine's blocking protocol must also handle tag-based out-of-order
// consumption and barriers without deadlock or misordering.
TEST(EventEngineProtocolTest, TagsBarriersAndClockSyncWork) {
  auto parsed = TopologySpec::Parse("ring", 4, CostModel{1e-3, 1e-6});
  ASSERT_TRUE(parsed.ok());
  Cluster cluster(*parsed);
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(int64_t{1}), /*tag=*/7);
      comm.Send(1, Payload(int64_t{2}), /*tag=*/9);
    } else if (comm.rank() == 1) {
      EXPECT_EQ(comm.RecvAs<int64_t>(0, /*tag=*/9), 2);
      EXPECT_EQ(comm.RecvAs<int64_t>(0, /*tag=*/7), 1);
    }
    comm.Barrier();
    comm.BarrierSyncClocks();
  });
  // All clocks aligned to the max after the sync.
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(cluster.comm(r).sim_now(), cluster.comm(0).sim_now());
  }
}

// Algorithms stay data-correct under the event engine — the engine
// changes timing accounting, never payload routing.
TEST(EventEngineProtocolTest, AlgorithmsConsistentUnderEventEngine) {
  const int p = 6;
  const size_t n = 600;
  AlgorithmConfig config;
  config.n = n;
  config.k = 60;
  config.num_workers = p;
  for (const char* topo : {"star", "fattree:3x4x2", "torus:3x2"}) {
    auto parsed = TopologySpec::Parse(topo, p);
    ASSERT_TRUE(parsed.ok()) << topo;
    for (const char* algo : {"spardl", "topka", "gtopk"}) {
      Cluster cluster(*parsed);
      std::vector<std::unique_ptr<SparseAllReduce>> algos(
          static_cast<size_t>(p));
      for (int r = 0; r < p; ++r) {
        algos[static_cast<size_t>(r)] =
            std::move(*CreateAlgorithm(algo, config));
      }
      std::vector<SparseVector> outs(static_cast<size_t>(p));
      cluster.Run([&](Comm& comm) {
        std::vector<float> grad = testing::RandomGradient(
            n, 47 + static_cast<uint64_t>(comm.rank()));
        outs[static_cast<size_t>(comm.rank())] =
            algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      });
      for (int r = 1; r < p; ++r) {
        EXPECT_EQ(outs[static_cast<size_t>(r)], outs[0]) << topo << " "
                                                         << algo;
      }
    }
  }
}

}  // namespace
}  // namespace spardl
