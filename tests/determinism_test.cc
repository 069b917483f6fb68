// Bit-reproducibility: two runs of the same configuration on fresh
// clusters must produce byte-identical global gradients for every method,
// and bit-identical simulated clocks on every default contended fabric.
// This is what makes the repo's experiments and regressions trustworthy.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/logging.h"
#include "dl/grad_profile.h"
#include "obs/exporters.h"
#include "simnet/cluster.h"
#include "test_util.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

struct SweepRun {
  std::vector<SparseVector> outputs;  // worker 0's, one per iteration
  std::vector<double> clocks;         // every worker's final clock
};

// A sweep input is a method name, optionally followed by "@<topology
// spec>". Bare methods run at P = 4 on a free flat crossbar (pinning the
// replicas' math). Fabric inputs run at P = 8 with Ethernet costs on the
// thread backend, with every spec field left at its default, so equal
// clocks across runs pin the charge engine's determinism under real
// thread interleavings.
SweepRun OneRun(const std::string& input) {
  const size_t at = input.find('@');
  const bool on_fabric = at != std::string::npos;
  const std::string name = input.substr(0, at);
  const int p = on_fabric ? 8 : 4;
  const size_t n = 400;
  AlgorithmConfig config;
  config.n = n;
  config.k = 40;
  config.num_workers = p;
  if (name == "spardl") config.num_teams = 2;
  TopologySpec spec = TopologySpec::Flat(p, CostModel::Free());
  if (on_fabric) {
    auto parsed = TopologySpec::Parse(input.substr(at + 1), p);
    SPARDL_CHECK(parsed.ok()) << parsed.status().ToString();
    spec = *parsed;
  }
  Cluster cluster(spec);
  if (on_fabric) cluster.set_exec_backend(ExecBackend::kThread);
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] = std::move(*CreateAlgorithm(name, config));
  }
  SweepRun run;
  std::vector<SparseVector> outputs(static_cast<size_t>(p));
  for (int iter = 0; iter < 3; ++iter) {
    cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      std::vector<float> grad = testing::RandomGradient(
          n, 777 + static_cast<uint64_t>(iter) * 1000 + rank);
      outputs[rank] = algos[rank]->Run(comm, grad);
    });
    run.outputs.push_back(outputs[0]);
  }
  for (int r = 0; r < p; ++r) run.clocks.push_back(cluster.comm(r).sim_now());
  return run;
}

class DeterminismSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismSweep, IdenticalAcrossRuns) {
  const std::string input = GetParam();
  const SweepRun first = OneRun(input);
  const SweepRun second = OneRun(input);
  ASSERT_EQ(first.outputs.size(), second.outputs.size());
  for (size_t i = 0; i < first.outputs.size(); ++i) {
    EXPECT_EQ(first.outputs[i], second.outputs[i]) << input << " iter " << i;
  }
  ASSERT_EQ(first.clocks.size(), second.clocks.size());
  for (size_t r = 0; r < first.clocks.size(); ++r) {
    EXPECT_EQ(first.clocks[r], second.clocks[r])  // exact
        << input << " worker " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, DeterminismSweep,
                         ::testing::Values("spardl", "topka", "topkdsa",
                                           "gtopk", "oktopk", "dense"));

// The default-spec contended fabrics: fan-in (TopkA) and log-round
// (SparDL) traffic queueing on shared links.
INSTANTIATE_TEST_SUITE_P(
    Fabrics, DeterminismSweep,
    ::testing::Values("topka@star", "spardl@star", "topka@fattree:4x4",
                      "spardl@fattree:4x4", "topka@ring", "spardl@ring",
                      "topka@torus:4x2", "spardl@torus:4x2"));

// One traced SparDL run on a contended oversubscribed fat-tree, exported
// as Chrome trace JSON.
std::string OneTracedRun() {
  const int p = 8;
  auto spec = TopologySpec::Parse("fattree:4x8x2", p);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  Cluster cluster(*spec);
  cluster.EnableTracing();

  AlgorithmConfig config;
  config.n = 1 << 12;
  config.k = config.n / 50;
  config.num_workers = p;
  config.num_teams = 2;
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] = std::move(*CreateAlgorithm("spardl", config));
  }
  const ProfileGradientGenerator generator(config.n, /*seed=*/99);
  for (int iter = 0; iter < 2; ++iter) {
    cluster.Run([&](Comm& comm) {
      algos[static_cast<size_t>(comm.rank())]->RunOnSparse(
          comm, generator.Generate(comm.rank(), iter, config.k * 3 / 2));
      comm.BarrierSyncClocks();
    });
  }
  return ChromeTraceJson(cluster);
}

// The observability acceptance bar: the exported trace — including the
// contended per-link occupancy spans — is byte-identical across runs,
// regardless of thread scheduling.
TEST(TraceDeterminism, ChromeTraceByteIdenticalAcrossRuns) {
  const std::string first = OneTracedRun();
  const std::string second = OneTracedRun();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace spardl
