// The training workload: the LSTM-PTB case trained end to end through
// `TrainDistributed`, with SparDL's dense-gradient `Run` (TopKDense plus
// the GRES residual store) instead of `RunOnSparse`, and real forward and
// backward compute on the workers.

#include <cmath>
#include <memory>

#include "baselines/registry.h"
#include "common/logging.h"
#include "dl/cases.h"
#include "dl/grad_profile.h"
#include "probes.h"
#include "topo/placement.h"
#include "workloads.h"

namespace perfbench {

namespace {

using spardl::Cluster;
using spardl::TrainResult;

constexpr int kWorkers = 4;
constexpr int kTeams = 2;  // R-SAG: d = 2 is a power of two
constexpr double kRatio = 0.03;
constexpr int kEpochs = 5;
constexpr int kItersPerEpoch = 10;
constexpr int kIterations = kEpochs * kItersPerEpoch;
constexpr int kSetupReps = 9;

class Trainer {
 public:
  Trainer(uint64_t seed, SpanLog& spans)
      : spec_(spardl::MakeTrainingCase("lstm-ptb")),
        // The case's vocabulary and sequence length, the run's seed.
        dataset_(spardl::MakeSyntheticLanguageModel(200, 12, seed)),
        log_(kWorkers, &spans) {
    log_.set_capture_outputs(true);
    config_ = spec_.default_config;
    config_.epochs = kEpochs;
    config_.iterations_per_epoch = kItersPerEpoch;
    config_.model_seed = seed;
    // The paper-scale rescale `RunTrainingCase` applies: beta grows by
    // paper-n / model-n and each iteration charges the paper model's
    // compute, so the small model sees the testbed's balance.
    const spardl::ModelProfile& profile =
        spardl::ProfileByModel(spec_.paper_model);
    n_ = spec_.model_factory(config_.model_seed)->num_params();
    fabric_ = spardl::TopologySpec::Flat(kWorkers);
    fabric_.cost.beta *= static_cast<double>(profile.num_params) /
                         static_cast<double>(n_);
    config_.compute_seconds_per_iteration = profile.compute_seconds;
    auto placement = spardl::PlanPlacement(
        fabric_, kWorkers, kTeams, spardl::PlacementPolicy::kContiguous);
    SPARDL_CHECK(placement.ok()) << placement.status().ToString();
    placement_ = std::move(*placement);
  }

  size_t n() const { return n_; }
  size_t k() const {
    return std::max<size_t>(
        1, static_cast<size_t>(kRatio * static_cast<double>(n_)));
  }
  CallLog& log() { return log_; }
  const spardl::Dataset& dataset() const { return *dataset_; }
  size_t batch_size() const { return config_.batch_size; }

  std::unique_ptr<Cluster> MakeCluster() const {
    return std::make_unique<Cluster>(fabric_);
  }

  TrainResult Train(Cluster& cluster, int epochs, int iters_per_epoch) {
    spardl::TrainerConfig config = config_;
    config.epochs = epochs;
    config.iterations_per_epoch = iters_per_epoch;
    spardl::AlgorithmFactory factory = [this](size_t n) {
      spardl::AlgorithmConfig algo;
      algo.n = n;
      algo.k = std::max<size_t>(
          1, static_cast<size_t>(kRatio * static_cast<double>(n)));
      algo.num_workers = kWorkers;
      algo.num_teams = kTeams;
      algo.placement = placement_;
      auto created = spardl::CreateAlgorithm("spardl", algo);
      SPARDL_CHECK(created.ok()) << created.status().ToString();
      return std::make_unique<TimedAlgorithm>(std::move(*created), &log_);
    };
    return spardl::TrainDistributed(cluster, *dataset_, spec_.model_factory,
                                    factory, config);
  }

 private:
  spardl::TrainingCaseSpec spec_;
  std::unique_ptr<spardl::Dataset> dataset_;
  CallLog log_;
  spardl::TrainerConfig config_;
  spardl::TopologySpec fabric_;
  spardl::TeamPlacement placement_;
  size_t n_ = 0;
};

/// One measured training run of `kIterations` updates.
struct TrainSample {
  double wall_s = 0.0;
  /// Rank 0's wall between successive exchanges returning (the first
  /// from the run's start): one value per update.
  std::vector<double> update_walls_s;
  double test_loss = 0.0;
  double nnz_mean = 0.0;
  SimSnapshot sim;
};

TrainSample TrainAndCheck(Trainer& trainer, Cluster& cluster,
                          WorkloadResult* result, SpanLog& spans) {
  CallLog& log = trainer.log();
  log.Reset();
  ScopedSpan run(spans, "dl.train_distributed");
  log.set_parent(run.id(), -1);
  TrainSample sample;
  const double start = Now();
  const TrainResult train = trainer.Train(cluster, kEpochs, kItersPerEpoch);
  sample.wall_s = Now() - start;
  result->attempted += kIterations;

  double prev = start;
  for (const CallRecord& c : log.calls(0)) {
    sample.update_walls_s.push_back(c.exit - prev);
    prev = c.exit;
  }
  sample.test_loss = train.epochs.back().test_metric;
  sample.sim = TakeSnapshot(cluster, kIterations);

  ScopedSpan check(spans, "check", run.id());
  bool loss_finite = std::isfinite(sample.test_loss);
  for (const spardl::EpochRecord& e : train.epochs) {
    loss_finite = loss_finite && std::isfinite(e.train_loss) &&
                  std::isfinite(e.test_metric);
  }
  if (!train.replicas_consistent || !loss_finite) {
    for (int i = 0; i < kIterations; ++i) {
      result->AddFailure(!train.replicas_consistent
                             ? "replicas diverged"
                             : "non-finite loss");
    }
    return sample;
  }
  double nnz = 0.0;
  for (int i = 0; i < kIterations; ++i) {
    std::vector<SparseVector> outs;
    for (int r = 0; r < kWorkers; ++r) {
      const auto& o = log.outputs(r);
      outs.push_back(i < static_cast<int>(o.size())
                         ? o[static_cast<size_t>(i)]
                         : SparseVector());
    }
    const std::string error = CheckUpdateOutputs(
        outs, trainer.n(), trainer.k() + static_cast<size_t>(kWorkers));
    if (!error.empty()) {
      result->AddFailure("iteration " + std::to_string(i) + ": " + error);
    }
    nnz += static_cast<double>(outs[0].size());
  }
  sample.nnz_mean = nnz / kIterations;
  log.ClearOutputs();
  return sample;
}

/// Trains repeatedly until `seconds` elapsed (at least twice, so the
/// in-run determinism gate always has a pair to compare).
std::vector<TrainSample> Window(Trainer& trainer, Cluster& cluster,
                                double seconds, WorkloadResult* result,
                                SpanLog& spans) {
  ScopedSpan window(spans, "window");
  std::vector<TrainSample> samples;
  const double start = Now();
  while (samples.size() < 2 || Now() - start < seconds) {
    samples.push_back(TrainAndCheck(trainer, cluster, result, spans));
    if (result->failed > 0) break;
  }
  return samples;
}

std::map<std::string, double> DeterministicSet(const TrainSample& s) {
  return {{"sim_update_ms", 1e3 * s.sim.PerUpdate(s.sim.makespan_s)},
          {"test_loss", s.test_loss},
          {"core.msgs_per_update", s.sim.PerUpdate(s.sim.max_msgs_received)},
          {"core.words_per_update",
           s.sim.PerUpdate(s.sim.max_words_received)}};
}

void CheckRepeats(const std::vector<TrainSample>& samples,
                  const std::map<std::string, double>& reference,
                  const char* what, WorkloadResult* result) {
  for (const TrainSample& s : samples) {
    if (DeterministicSet(s) != reference) {
      result->problems.push_back(
          std::string("simulated values or test loss differ between ") +
          what);
      return;
    }
  }
}

double UpdatesPerSecond(const std::vector<TrainSample>& samples) {
  double wall = 0.0;
  for (const TrainSample& s : samples) wall += s.wall_s;
  return static_cast<double>(samples.size() * kIterations) / wall;
}

}  // namespace

WorkloadResult RunTrainLstmP4(const RunOptions& options) {
  WorkloadResult result;
  result.spans = std::make_unique<SpanLog>(options.trace, kWorkers);
  SpanLog& spans = *result.spans;
  Trainer trainer(options.seed, spans);

  // Setup: construction plus a short warm-up training run, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    ScopedSpan span(spans, "setup");
    trainer.log().Reset();
    const double t0 = Now();
    cluster = trainer.MakeCluster();
    const TrainResult warm = trainer.Train(*cluster, 1, 2);
    setup_s.push_back(Now() - t0);
    if (!warm.replicas_consistent) {
      result.problems.push_back("warm-up replicas diverged");
    }
  }

  const std::vector<TrainSample> untraced =
      Window(trainer, *cluster, options.seconds, &result, spans);
  result.deterministic = DeterministicSet(untraced.front());
  CheckRepeats(untraced, result.deterministic, "training runs", &result);
  std::vector<double> walls;
  for (const TrainSample& s : untraced) {
    walls.insert(walls.end(), s.update_walls_s.begin(),
                 s.update_walls_s.end());
  }
  const double ups = UpdatesPerSecond(untraced);
  AddEndToEnd(walls, ups, result.deterministic["sim_update_ms"], setup_s,
              &result);
  result.info["test_loss"] = Metric{result.deterministic["test_loss"], "loss"};

  if (options.trace && result.failed == 0) {
    ProbeEngine(*cluster, spans, &result);
    cluster->EnableTracing();
    trainer.log().set_capture_dense(true);
    const std::vector<TrainSample> traced =
        Window(trainer, *cluster, options.seconds, &result, spans);
    CheckRepeats(traced, result.deterministic, "traced and untraced runs",
                 &result);
    std::vector<SimSnapshot> snapshots;
    std::vector<double> fill;
    std::vector<double> run_ms;
    std::vector<double> us_per_msg;
    for (const TrainSample& s : traced) {
      snapshots.push_back(s.sim);
      fill.push_back(s.nnz_mean / static_cast<double>(trainer.k()));
      run_ms.push_back(1e3 * s.wall_s / kIterations);
      us_per_msg.push_back(1e6 * s.wall_s / s.sim.messages_sent);
    }
    AddSimLayerMetrics(snapshots, &result);
    const SimSnapshot& first = traced.front().sim;
    result.deterministic["topo.cp_queue_ms"] =
        1e3 * first.PerUpdate(first.cp_queue_s);
    result.deterministic["topo.cp_alpha_ms"] =
        1e3 * first.PerUpdate(first.cp_alpha_s);
    result.deterministic["topo.cp_serialize_ms"] =
        1e3 * first.PerUpdate(first.cp_serialize_s);

    AddCallMetrics(trainer.log(), &result);
    auto& layer = result.per_layer;
    layer["core.result_fill"] = Metric{Mean(fill), "ratio"};
    layer["simnet.run_wall_ms"] = Metric{Median(run_ms), "ms"};
    layer["simnet.wall_us_per_message"] = Metric{Median(us_per_msg), "us"};
    // This workload's input generator is the dataset's batch sampler.
    std::vector<double> generate_s;
    {
      ScopedSpan span(spans, "dl.train_batch");
      for (int i = 0; i < 20; ++i) {
        generate_s.push_back(TimeIt([&] {
          (void)trainer.dataset().TrainBatch(0, i, trainer.batch_size());
        }));
      }
    }
    layer["dl.generate_ms"] = Metric{1e3 * Median(generate_s), "ms"};
    layer["obs.trace_overhead"] =
        Metric{UpdatesPerSecond(traced) / ups, "ratio"};
    std::vector<SparseVector> candidates;
    for (int r = 0; r < kWorkers; ++r) {
      candidates.push_back(SparseVector::FromDense(trainer.log().dense(r)));
    }
    ReplaySparseKernels(candidates, trainer.n(), trainer.k(), spans, &result);
  }
  result.info["peak_rss_mb"] = Metric{PeakRssMb(), "MB"};
  return result;
}

}  // namespace perfbench
