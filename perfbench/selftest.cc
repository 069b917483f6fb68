// The benchmark's own tests: the per-update output check must catch a
// worker whose global result was perturbed, on both the RunOnSparse path
// the update workloads drive and the dense Run path TrainDistributed
// drives, and must pass the unperturbed algorithm.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/logging.h"
#include "dl/cases.h"
#include "dl/grad_profile.h"
#include "harness.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// Adds 1 to the first value of rank `victim`'s result: the smallest
/// divergence from the `SparseAllReduce` post-condition.
class PerturbingAlgorithm : public SparseAllReduce {
 public:
  PerturbingAlgorithm(std::unique_ptr<SparseAllReduce> inner, int victim)
      : inner_(std::move(inner)), victim_(victim) {}

  SparseVector Run(Comm& comm, std::span<float> grad) override {
    return Perturb(comm, inner_->Run(comm, grad));
  }
  SparseVector RunOnSparse(Comm& comm,
                           const SparseVector& candidates) override {
    return Perturb(comm, inner_->RunOnSparse(comm, candidates));
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  SparseVector Perturb(const Comm& comm, SparseVector out) const {
    if (comm.rank() != victim_ || out.empty()) return out;
    std::vector<spardl::GradIndex> indices(out.indices().begin(),
                                           out.indices().end());
    std::vector<float> values(out.values().begin(), out.values().end());
    values[0] += 1.0f;
    return SparseVector(std::move(indices), std::move(values));
  }

  std::unique_ptr<SparseAllReduce> inner_;
  int victim_;
};

constexpr int kWorkers = 4;
constexpr int kNoVictim = -1;

spardl::AlgorithmConfig SmallConfig(size_t n) {
  spardl::AlgorithmConfig config;
  config.n = n;
  config.k = n / 100;
  config.num_workers = kWorkers;
  config.num_teams = 2;
  return config;
}

std::unique_ptr<SparseAllReduce> Make(const spardl::AlgorithmConfig& config,
                                      int victim, CallLog* log) {
  auto created = spardl::CreateAlgorithm("spardl", config);
  SPARDL_CHECK(created.ok()) << created.status().ToString();
  return std::make_unique<TimedAlgorithm>(
      std::make_unique<PerturbingAlgorithm>(std::move(*created), victim), log);
}

/// One RunOnSparse update; returns the output check's verdict.
std::string SparseUpdate(int victim) {
  spardl::AlgorithmConfig config = SmallConfig(100'000);
  config.residual_mode = spardl::ResidualMode::kNone;
  spardl::Cluster cluster(kWorkers, spardl::CostModel::Ethernet());
  cluster.set_exec_backend(spardl::ExecBackend::kFiber);
  SpanLog spans(false, kWorkers);
  CallLog log(kWorkers, &spans);
  std::vector<std::unique_ptr<SparseAllReduce>> algos;
  for (int r = 0; r < kWorkers; ++r) algos.push_back(Make(config, victim, &log));
  const spardl::ProfileGradientGenerator generator(config.n, 3);
  std::vector<SparseVector> outs(kWorkers);
  SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
    const auto r = static_cast<size_t>(comm.rank());
    const SparseVector candidates =
        generator.Generate(comm.rank(), 0, config.k * 3 / 2);
    outs[r] = algos[r]->RunOnSparse(comm, candidates);
    comm.BarrierSyncClocks();
  }));
  return CheckUpdateOutputs(outs, config.n, config.k + kWorkers);
}

/// A short TrainDistributed run; returns whether replicas stayed
/// consistent and how many iterations failed the output check.
std::pair<bool, int> TrainUpdates(int victim) {
  const spardl::TrainingCaseSpec spec = spardl::MakeTrainingCase("lstm-ptb");
  const auto dataset = spec.dataset_factory();
  spardl::TrainerConfig config = spec.default_config;
  config.epochs = 1;
  config.iterations_per_epoch = 3;
  spardl::Cluster cluster(kWorkers, spardl::CostModel::Ethernet());
  SpanLog spans(false, kWorkers);
  CallLog log(kWorkers, &spans);
  log.set_capture_outputs(true);
  size_t n = 0;
  const spardl::TrainResult result = spardl::TrainDistributed(
      cluster, *dataset, spec.model_factory,
      [&](size_t model_n) {
        n = model_n;
        return Make(SmallConfig(model_n), victim, &log);
      },
      config);
  int failed = 0;
  for (int i = 0; i < config.iterations_per_epoch; ++i) {
    std::vector<SparseVector> outs;
    for (int r = 0; r < kWorkers; ++r) {
      outs.push_back(log.outputs(r).at(static_cast<size_t>(i)));
    }
    if (!CheckUpdateOutputs(outs, n, n / 100 + kWorkers).empty()) ++failed;
  }
  return {result.replicas_consistent, failed};
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;  // NOLINT
  NeutraliseEnvironment();
  Expect(SparseUpdate(kNoVictim).empty(),
         "RunOnSparse: unperturbed update passes the output check");
  const std::string caught = SparseUpdate(2);
  Expect(!caught.empty(),
         "RunOnSparse: perturbed worker 2 is caught (" + caught + ")");

  const auto [clean_consistent, clean_failed] = TrainUpdates(kNoVictim);
  Expect(clean_consistent && clean_failed == 0,
         "Run: unperturbed training passes every iteration's check");
  const auto [bad_consistent, bad_failed] = TrainUpdates(1);
  Expect(bad_failed == 3,
         "Run: perturbed worker 1 is caught on every iteration (" +
             std::to_string(bad_failed) + "/3)");
  Expect(!bad_consistent, "Run: perturbed worker 1 diverges its replica");

  Expect(!CheckUpdateOutputs(std::vector<SparseVector>{SparseVector(
                                 {5, 20}, {1.0f, 2.0f})},
                             /*n=*/10, /*max_nnz=*/4)
              .empty(),
         "an index outside [0, n) is caught");
  Expect(!CheckUpdateOutputs(std::vector<SparseVector>{SparseVector(
                                 {1, 2, 3}, {1.0f, 2.0f, 3.0f})},
                             /*n=*/10, /*max_nnz=*/2)
              .empty(),
         "nnz above the bound is caught");
  std::printf("%s\n", g_failures == 0 ? "selftest: all passed"
                                      : "selftest: FAILED");
  return g_failures == 0 ? 0 : 1;
}
