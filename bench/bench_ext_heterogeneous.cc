// Extension bench (paper §VI: "heterogeneous environment"): one straggler
// worker with a slower network path. Methods with Theta(P) direct-send
// fan-in (TopkDSA, Ok-Topk) funnel many messages through the slow NIC and
// degrade faster than the log-round methods (SparDL, TopkA).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/strings.h"
#include "dl/grad_profile.h"
#include "metrics/table.h"
#include "simnet/cluster.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

// Per-update makespan (max worker clock / iterations) on the --topology
// fabric (flat by default). `slowdown` > 1 gives worker p/2 a slower
// network path; `compute_mult` > 0 switches on compute charging (every
// worker pays the profile's forward+backward time) with worker p/2's
// compute scaled by `compute_mult` — the compute-side straggler the
// paper's §VI leaves to future work.
double PerUpdateSeconds(const bench::HarnessArgs& args,
                        const std::string& algo, int p, double slowdown,
                        double compute_mult, int iterations) {
  const ModelProfile& profile = ProfileByModel("VGG-19");
  const size_t n = profile.num_params;
  const size_t k = n / 100;
  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  config.residual_mode = ResidualMode::kNone;

  Cluster cluster(
      *args.TopologyOr(TopologySpec::Flat(p, CostModel::Ethernet()), p));
  bench::PrepareCluster(cluster);
  if (slowdown > 1.0) cluster.network().SetWorkerSlowdown(p / 2, slowdown);
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] = std::move(*CreateAlgorithm(algo, config));
  }
  ProfileGradientGenerator generator(n, 11);
  if (compute_mult > 0.0) {
    generator.SetComputeMultiplier(p / 2, compute_mult);
  }
  for (int iter = 0; iter < 1 + iterations; ++iter) {
    if (iter == 1) cluster.ResetClocksAndStats();
    SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
      if (generator.has_compute_skew()) {
        comm.Compute(generator.ComputeSeconds(comm.rank(),
                                              profile.compute_seconds));
      }
      const SparseVector candidates =
          generator.Generate(comm.rank(), iter, k + k / 2);
      algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm, candidates);
      comm.BarrierSyncClocks();
    }));
  }
  bench::ObserveRun(
      cluster, StrFormat("%s net %gx", algo.c_str(), slowdown) +
                   (compute_mult > 0.0
                        ? StrFormat(" compute %gx", compute_mult)
                        : std::string()));
  return cluster.MaxSimSeconds() / static_cast<double>(iterations);
}

}  // namespace
}  // namespace spardl

int main(int argc, char** argv) {
  using namespace spardl;  // NOLINT
  // No team layout here for --placement to change.
  const bench::HarnessArgs args = bench::ParseHarnessArgs(
      argc, argv, {.placement = false});
  const int p = args.workers_or(14);
  const int iters = args.iterations_or(1);
  std::printf(
      "== Extension: heterogeneous cluster (one straggler, VGG-19 "
      "profile, P=%d) ==\n\n",
      p);
  TablePrinter table({"method", "homogeneous (s)", "straggler 4x (s)",
                      "straggler 16x (s)", "degradation @16x"});
  for (const std::string& algo :
       {std::string("topkdsa"), std::string("topka"), std::string("oktopk"),
        std::string("spardl")}) {
    const double base = PerUpdateSeconds(args, algo, p, 1.0, 0.0, iters);
    const double slow4 = PerUpdateSeconds(args, algo, p, 4.0, 0.0, iters);
    const double slow16 = PerUpdateSeconds(args, algo, p, 16.0, 0.0, iters);
    table.AddRow({algo, StrFormat("%.4f", base), StrFormat("%.4f", slow4),
                  StrFormat("%.4f", slow16),
                  StrFormat("%.1fx", slow16 / base)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Compute-side straggler: worker p/2 keeps a full-speed NIC but its
  // forward+backward pass runs 4x / 16x slower (a throttled or older
  // accelerator). Baseline charges compute homogeneously so the columns
  // are comparable.
  std::printf(
      "== Compute-side straggler (one slow accelerator, same fabric) "
      "==\n\n");
  TablePrinter compute_table({"method", "homogeneous (s)",
                              "slow compute 4x (s)",
                              "slow compute 16x (s)", "degradation @16x"});
  for (const std::string& algo :
       {std::string("topkdsa"), std::string("topka"), std::string("oktopk"),
        std::string("spardl")}) {
    const double base = PerUpdateSeconds(args, algo, p, 1.0, 1.0, iters);
    const double slow4 = PerUpdateSeconds(args, algo, p, 1.0, 4.0, iters);
    const double slow16 = PerUpdateSeconds(args, algo, p, 1.0, 16.0, iters);
    compute_table.AddRow(
        {algo, StrFormat("%.4f", base), StrFormat("%.4f", slow4),
         StrFormat("%.4f", slow16), StrFormat("%.1fx", slow16 / base)});
  }
  std::printf("%s\n", compute_table.ToString().c_str());
  std::printf(
      "Reading: synchronous All-Reduce is gated by the slowest worker, so "
      "every method degrades by about the straggler's slowdown factor — "
      "but the *absolute* penalty is proportional to the method's "
      "per-update volume, so the bandwidth-heavy methods (TopkA, TopkDSA) "
      "lose whole seconds where SparDL loses a few hundred ms. The "
      "compute-side table shows the complementary regime: a slow "
      "accelerator delays every method by the same absolute compute gap, "
      "so the *fastest* communicator degrades by the largest factor. The "
      "paper lists heterogeneity-aware variants as future work; this "
      "harness provides the measurement substrate for them.\n");
  return 0;
}
