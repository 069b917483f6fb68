// The shared bench command line (`bench::ParseHarnessArgs`) and its one
// apply point (`bench::PrepareCluster`): both flag spellings parse, bad
// input exits 2 with a usage message, and every accepted flag reaches the
// cluster or the output files instead of being dropped.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/json.h"
#include "simnet/cluster.h"

namespace spardl {
namespace {

// Parses `args` as the command line of a binary named "bench" that
// reads the flags `reads` names. The parsed flags stay installed for
// `PrepareCluster` / `ObserveRun`.
bench::HarnessArgs Parse(std::vector<std::string> args,
                         bench::HarnessFlags reads = {}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return bench::ParseHarnessArgs(static_cast<int>(argv.size()), argv.data(),
                                 reads);
}

// What fig8-style benches (fixed fabric, no team layout) and fig1 (no
// cluster at all) declare.
constexpr bench::HarnessFlags kFixedFabric{.topology = false,
                                           .placement = false};
constexpr bench::HarnessFlags kNoCluster{.iterations = false,
                                         .topology = false,
                                         .placement = false,
                                         .cluster = false};

TEST(ParseHarnessArgsTest, EmptyCommandLineSetsNothing) {
  const bench::HarnessArgs args = Parse({});
  EXPECT_FALSE(args.workers.has_value());
  EXPECT_FALSE(args.iterations.has_value());
  EXPECT_FALSE(args.topology.has_value());
  EXPECT_FALSE(args.backend.has_value());
  EXPECT_FALSE(args.placement.has_value());
  EXPECT_FALSE(args.trace_out.has_value());
  EXPECT_FALSE(args.metrics_out.has_value());
  EXPECT_FALSE(args.timeseries_out.has_value());
  EXPECT_FALSE(args.protocol_check);
  EXPECT_EQ(args.workers_or(14), 14);
  EXPECT_EQ(args.iterations_or(3), 3);
}

TEST(ParseHarnessArgsTest, AcceptsEqualsForm) {
  const bench::HarnessArgs args = Parse(
      {"--workers=4", "--iterations=2", "--topology=fattree:2x2",
       "--backend=fiber", "--placement=rack", "--trace-out=t.json",
       "--metrics-out=m.json", "--timeseries-out=s.json",
       "--protocol-check"});
  EXPECT_EQ(args.workers, 4);
  EXPECT_EQ(args.iterations, 2);
  EXPECT_EQ(args.topology, "fattree:2x2");
  EXPECT_EQ(args.backend, ExecBackend::kFiber);
  EXPECT_EQ(args.placement, PlacementPolicy::kRackLocal);
  EXPECT_EQ(args.trace_out, "t.json");
  EXPECT_EQ(args.metrics_out, "m.json");
  EXPECT_EQ(args.timeseries_out, "s.json");
  EXPECT_TRUE(args.protocol_check);
  Parse({});
}

TEST(ParseHarnessArgsTest, AcceptsSeparateValueForm) {
  const bench::HarnessArgs args = Parse(
      {"--workers", "4", "--iterations", "2", "--topology", "fattree:2x2",
       "--backend", "thread", "--placement", "interleaved", "--trace-out",
       "t.json", "--metrics-out", "m.json", "--timeseries-out", "s.json"});
  EXPECT_EQ(args.workers, 4);
  EXPECT_EQ(args.iterations, 2);
  EXPECT_EQ(args.topology, "fattree:2x2");
  EXPECT_EQ(args.backend, ExecBackend::kThread);
  EXPECT_EQ(args.placement, PlacementPolicy::kInterleaved);
  EXPECT_EQ(args.trace_out, "t.json");
  EXPECT_EQ(args.metrics_out, "m.json");
  EXPECT_EQ(args.timeseries_out, "s.json");
  EXPECT_FALSE(args.protocol_check);
  Parse({});
}

TEST(ParseHarnessArgsTest, TheLastOccurrenceWins) {
  EXPECT_EQ(Parse({"--workers", "4", "--workers=6"}).workers, 6);
}

TEST(ParseHarnessArgsTest, FlagsTheBenchReadsStillParse) {
  const bench::HarnessArgs fixed = Parse(
      {"--workers", "4", "--iterations=2", "--backend", "fiber",
       "--metrics-out", "m.json", "--protocol-check"},
      kFixedFabric);
  EXPECT_EQ(fixed.workers, 4);
  EXPECT_EQ(fixed.iterations, 2);
  EXPECT_EQ(fixed.backend, ExecBackend::kFiber);
  EXPECT_EQ(fixed.metrics_out, "m.json");
  EXPECT_TRUE(fixed.protocol_check);
  EXPECT_EQ(Parse({"--workers=8"}, kNoCluster).workers, 8);
  Parse({});
}

using ParseHarnessArgsDeathTest = ::testing::Test;

// A flag the bench declared it does not read exits 2, naming the flag
// and listing what the bench does read, instead of being dropped.
TEST(ParseHarnessArgsDeathTest, FlagsTheBenchDoesNotReadExitTwo) {
  EXPECT_EXIT(Parse({"--topology", "fattree:2x2"}, kFixedFabric),
              ::testing::ExitedWithCode(2),
              "this bench does not read '--topology' \\(supported flags: "
              "--workers N, --iterations N, --backend ");
  EXPECT_EXIT(Parse({"--placement=rack"}, kFixedFabric),
              ::testing::ExitedWithCode(2),
              "this bench does not read '--placement=rack'");
  EXPECT_EXIT(Parse({"--placement", "rack"}, {.placement = false}),
              ::testing::ExitedWithCode(2),
              "this bench does not read '--placement'");
  for (const char* flag :
       {"--iterations=2", "--topology=flat", "--backend=fiber",
        "--placement=rack", "--trace-out=t.json", "--metrics-out=m.json",
        "--timeseries-out=s.json", "--protocol-check"}) {
    EXPECT_EXIT(Parse({"--workers", "8", flag}, kNoCluster),
                ::testing::ExitedWithCode(2),
                "this bench does not read '" + std::string(flag) +
                    "' \\(supported flags: --workers N\\)")
        << flag;
  }
}

// A flag the bench declared it reads but never read through its
// accessor aborts the bench at exit: the declaration cannot drift from
// the code.
TEST(ParseHarnessArgsDeathTest, AcceptedFlagNeverReadAbortsAtExit) {
  EXPECT_DEATH(
      {
        Parse({"--topology", "flat"});
        std::exit(0);
      },
      "this bench accepted --topology but never read it");
  EXPECT_DEATH(
      {
        const bench::HarnessArgs args =
            Parse({"--iterations=2", "--placement=rack"});
        (void)args.iterations_or(1);
        std::exit(0);
      },
      "this bench accepted --placement but never read it");
  EXPECT_EXIT(
      {
        const bench::HarnessArgs args = Parse(
            {"--iterations=2", "--placement=rack", "--topology=flat"});
        (void)args.iterations_or(1);
        (void)args.placement_or(PlacementPolicy::kContiguous);
        (void)args.TopologyOr(std::nullopt, 4);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ParseHarnessArgsDeathTest, UnknownFlagsExitTwo) {
  EXPECT_EXIT(Parse({"--verbose"}), ::testing::ExitedWithCode(2),
              "unknown flag '--verbose'");
  EXPECT_EXIT(Parse({"--worker=4"}), ::testing::ExitedWithCode(2),
              "unknown flag '--worker=4'");
}

TEST(ParseHarnessArgsDeathTest, PositionalArgumentsExitTwo) {
  EXPECT_EXIT(Parse({"8", "--topology", "fattree:2x4"}),
              ::testing::ExitedWithCode(2), "unknown argument '8'");
}

TEST(ParseHarnessArgsDeathTest, BadValuesExitTwo) {
  EXPECT_EXIT(Parse({"--workers=4junk"}), ::testing::ExitedWithCode(2),
              "bad value '4junk' for --workers");
  EXPECT_EXIT(Parse({"--iterations", "0"}), ::testing::ExitedWithCode(2),
              "bad value '0' for --iterations");
  EXPECT_EXIT(Parse({"--workers"}), ::testing::ExitedWithCode(2),
              "missing value for --workers");
  EXPECT_EXIT(Parse({"--trace-out", "--protocol-check"}),
              ::testing::ExitedWithCode(2), "missing value for --trace-out");
  EXPECT_EXIT(Parse({"--backend=gpu"}), ::testing::ExitedWithCode(2),
              "bad value 'gpu' for --backend");
  EXPECT_EXIT(Parse({"--placement", "diagonal"}),
              ::testing::ExitedWithCode(2), "bad --placement");
}

TEST(PrepareClusterTest, NoFlagsLeaveTheClusterAsBuilt) {
  Parse({});
  Cluster cluster(4, CostModel::Free());
  bench::PrepareCluster(cluster);
  EXPECT_EQ(cluster.exec_backend(), Cluster::DefaultExecBackend());
  EXPECT_EQ(cluster.tracer(), nullptr);
  EXPECT_EQ(cluster.protocol_checker(), nullptr);
}

TEST(PrepareClusterTest, AppliesBackendCheckerAndTracing) {
  Parse({"--backend", "fiber", "--protocol-check", "--trace-out",
         ::testing::TempDir() + "/harness_trace.json"});
  Cluster fiber_cluster(4, CostModel::Free());
  bench::PrepareCluster(fiber_cluster);
  EXPECT_EQ(fiber_cluster.exec_backend(), ExecBackend::kFiber);
  EXPECT_NE(fiber_cluster.protocol_checker(), nullptr);
  EXPECT_NE(fiber_cluster.tracer(), nullptr);

  Parse({"--backend", "thread"});
  Cluster thread_cluster(4, CostModel::Free());
  thread_cluster.set_exec_backend(ExecBackend::kFiber);
  bench::PrepareCluster(thread_cluster);
  EXPECT_EQ(thread_cluster.exec_backend(), ExecBackend::kThread);
  EXPECT_EQ(thread_cluster.protocol_checker(), nullptr);
  EXPECT_EQ(thread_cluster.tracer(), nullptr);
  Parse({});
}

// Every output sink turns span recording on, and `ObserveRun` writes each
// requested file as a valid document.
TEST(PrepareClusterTest, EachSinkIsWrittenAfterAnObservedRun) {
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> files = {dir + "/harness_trace.json",
                                          dir + "/harness_metrics.json",
                                          dir + "/harness_series.json"};
  for (const std::string& file : files) std::remove(file.c_str());
  Parse({"--trace-out", files[0], "--metrics-out", files[1],
         "--timeseries-out", files[2]});
  Cluster cluster(4, CostModel::Ethernet());
  bench::PrepareCluster(cluster);
  ASSERT_NE(cluster.tracer(), nullptr);
  ASSERT_TRUE(cluster
                  .Run([](Comm& comm) {
                    comm.Send((comm.rank() + 1) % comm.size(),
                              Payload(std::vector<float>(64, 1.0f)));
                    comm.RecvAs<std::vector<float>>(
                        (comm.rank() + comm.size() - 1) % comm.size());
                    comm.MarkIteration();
                    comm.BarrierSyncClocks();
                  })
                  .ok());
  bench::ObserveRun(cluster, "ring");
  for (const std::string& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(IsValidJson(text.str())) << file;
  }
  Parse({});
}

}  // namespace
}  // namespace spardl
