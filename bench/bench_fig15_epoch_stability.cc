// Reproduces Fig. 15: per-epoch time across the first training epochs for
// each team count d (P = 14 and P = 12, VGG-16 profile). Paper claim: the
// per-epoch time of each configuration is stable across epochs, so the d
// with the least first-epoch time is (almost surely) the optimal d — the
// paper's recommended selection procedure (§III-D / §IV-G).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/strings.h"
#include "dl/grad_profile.h"
#include "metrics/table.h"
#include "simnet/cluster.h"

namespace spardl {
namespace {

// Simulated per-epoch seconds for `epochs` consecutive epochs (support
// drifts across iterations like real training).
std::vector<double> EpochTimes(const bench::HarnessArgs& args,
                               const std::string& algo, int p, int d,
                               int epochs, int iters_per_epoch) {
  const ModelProfile& profile = ProfileByModel("VGG-16");
  const size_t n = profile.num_params;
  const size_t k = n / 100;
  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  config.num_teams = d;
  config.residual_mode = ResidualMode::kNone;

  Cluster cluster(
      *args.TopologyOr(TopologySpec::Flat(p, CostModel::Ethernet()), p));
  bench::PrepareCluster(cluster);
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] = std::move(*CreateAlgorithm(algo, config));
  }
  const ProfileGradientGenerator generator(n, 1234, 64,
                                           /*drift_period=*/iters_per_epoch);
  std::vector<double> times;
  int64_t iteration = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const double before = cluster.MaxSimSeconds();
    for (int i = 0; i < iters_per_epoch; ++i, ++iteration) {
      SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
        const SparseVector candidates = generator.Generate(
            comm.rank(), iteration, k + k / 2);
        algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm,
                                                             candidates);
        comm.BarrierSyncClocks();
      }));
    }
    times.push_back(cluster.MaxSimSeconds() - before +
                    profile.compute_seconds * iters_per_epoch);
  }
  bench::ObserveRun(cluster,
                    std::string(algos[0]->name()) + StrFormat(" P=%d", p));
  return times;
}

void RunForWorkers(const bench::HarnessArgs& args, int p,
                   const std::vector<std::pair<std::string, int>>&
                       configurations) {
  const int epochs = 5;
  const int iters = args.iterations_or(8);
  TablePrinter table([&] {
    std::vector<std::string> header = {"config"};
    for (int e = 1; e <= epochs; ++e) {
      header.push_back(StrFormat("ep%d (s)", e));
    }
    return header;
  }());
  std::map<std::string, std::vector<double>> all;
  for (const auto& [label, d] : configurations) {
    const std::string algo = label[0] == 'B'   ? "spardl-bsag"
                             : label[0] == 'R' ? "spardl-rsag"
                                               : "spardl";
    std::vector<double> times = EpochTimes(args, algo, p, d, epochs, iters);
    std::vector<std::string> row = {label};
    for (double t : times) row.push_back(StrFormat("%.2f", t));
    table.AddRow(row);
    all[label] = times;
  }
  std::printf("P = %d (VGG-16 profile)\n%s\n", p,
              table.ToString().c_str());

  // Stability + winner consistency check.
  for (const auto& [label, times] : all) {
    const auto [min_it, max_it] =
        std::minmax_element(times.begin(), times.end());
    std::printf("  %-4s spread: %.1f%%\n", label.c_str(),
                100.0 * (*max_it - *min_it) / *min_it);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace spardl

int main(int argc, char** argv) {
  // Teams stay contiguous, as the figure lays them out: --placement
  // is not read.
  const spardl::bench::HarnessArgs args = spardl::bench::ParseHarnessArgs(
      argc, argv, {.placement = false});
  std::printf(
      "== Fig. 15: per-epoch time stability across epochs ==\n\n");
  if (args.workers.has_value()) {
    // --workers collapses the two paper panels into one sweep of every
    // divisor d of the requested size (B-SAG, plus R-SAG at d=2).
    const int p = *args.workers;
    std::vector<std::pair<std::string, int>> configurations = {{"1", 1}};
    if (p % 2 == 0) configurations.push_back({"R2", 2});
    for (int d = 2; d <= p; ++d) {
      if (p % d == 0) {
        configurations.push_back({spardl::StrFormat("B%d", d), d});
      }
    }
    spardl::RunForWorkers(args, p, configurations);
  } else {
    spardl::RunForWorkers(
        args, 14, {{"1", 1}, {"R2", 2}, {"B2", 2}, {"B7", 7}, {"B14", 14}});
    spardl::RunForWorkers(args, 12, {{"1", 1},
                                     {"R2", 2},
                                     {"R4", 4},
                                     {"B2", 2},
                                     {"B3", 3},
                                     {"B4", 4},
                                     {"B6", 6},
                                     {"B12", 12}});
  }
  std::printf(
      "Paper claim: the optimal d is steadily fastest across epochs, so "
      "one epoch per candidate d suffices to pick it.\n");
  return 0;
}
