// The two per-update exchange workloads: one synchronous sparse
// All-Reduce per `Cluster::Run`, SparDL's `RunOnSparse` on generated
// candidate gradients, the way `MeasurePerUpdate` drives the paper-scale
// per-update benches, but with every update checked and timed.

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "baselines/registry.h"
#include "common/logging.h"
#include "dl/grad_profile.h"
#include "probes.h"
#include "topo/placement.h"
#include "workloads.h"

namespace perfbench {

namespace {

using spardl::Cluster;

struct UpdateSpec {
  size_t n = 0;
  double k_ratio = 0.0;
  double candidate_factor = 1.5;
  int num_workers = 0;
  int num_teams = 1;
  spardl::TopologySpec fabric;
  /// Distinct generated updates the measured window cycles through.
  int pool_size = 1;
  /// Generator iterations between pool entries: 1 keeps the hot windows'
  /// slow drift that B-SAG's h controller tracks; the generator's drift
  /// period (50) gives every entry its own window placement.
  int pool_stride = 1;
  /// Setup repetitions (construction + one warm-up update each).
  int setup_reps = 3;
  /// Measured updates whose simulated values form the deterministic set
  /// (whole pool cycles); a window always runs at least this many.
  int sim_updates = 1;

  size_t k() const {
    return std::max<size_t>(
        1, static_cast<size_t>(k_ratio * static_cast<double>(n)));
  }
  size_t candidates() const {
    return std::max<size_t>(
        k(), static_cast<size_t>(candidate_factor * static_cast<double>(k())));
  }
};

UpdateSpec FlatP14() {
  UpdateSpec s;
  s.n = spardl::ProfileByModel("VGG-19").num_params;
  s.k_ratio = 0.01;
  s.num_workers = 14;
  s.num_teams = 7;  // B-SAG: d = 7 is not a power of two
  s.fabric = spardl::TopologySpec::Flat(14, spardl::CostModel::Ethernet());
  s.pool_size = 4;
  s.setup_reps = 9;
  s.sim_updates = 8;
  return s;
}

UpdateSpec FatTreeP1024() {
  UpdateSpec s;
  s.n = 4'000'000;
  s.k_ratio = 0.001;
  s.num_workers = 1024;
  s.num_teams = 1;
  s.fabric = spardl::TopologySpec::FatTree(
      1024, /*rack_size=*/8, /*oversubscription=*/4.0,
      spardl::CostModel::Ethernet(), /*num_cores=*/2);
  s.fabric.engine = spardl::ChargeEngine::kEventOrdered;
  // Per-update wall depends on where the hot windows land, so one run
  // averages four placements instead of measuring one per seed.
  s.pool_size = 4;
  s.pool_stride = 50;
  s.setup_reps = 5;
  s.sim_updates = 4;
  return s;
}

/// One constructed cluster with its per-worker algorithm instances.
struct Instance {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<SparseAllReduce>> algos;
};

Instance Build(const UpdateSpec& spec, CallLog* log) {
  Instance in;
  in.cluster = std::make_unique<Cluster>(spec.fabric);
  in.cluster->set_exec_backend(spardl::ExecBackend::kFiber);
  spardl::AlgorithmConfig config;
  config.n = spec.n;
  config.k = spec.k();
  config.num_workers = spec.num_workers;
  config.num_teams = spec.num_teams;
  config.residual_mode = spardl::ResidualMode::kNone;
  auto placement =
      spardl::PlanPlacement(spec.fabric, spec.num_workers, spec.num_teams,
                            spardl::PlacementPolicy::kContiguous);
  SPARDL_CHECK(placement.ok()) << placement.status().ToString();
  config.placement = std::move(*placement);
  for (int r = 0; r < spec.num_workers; ++r) {
    auto created = spardl::CreateAlgorithm("spardl", config);
    SPARDL_CHECK(created.ok()) << created.status().ToString();
    in.algos.push_back(
        std::make_unique<TimedAlgorithm>(std::move(*created), log));
  }
  return in;
}

using Pool = std::vector<std::vector<SparseVector>>;  // [update][rank]

/// Generates the input pool on up to four threads; returns the per-call
/// wall seconds of `ProfileGradientGenerator::Generate`.
std::vector<double> GeneratePool(const UpdateSpec& spec, uint64_t seed,
                                 SpanLog& spans, Pool* pool) {
  ScopedSpan span(spans, "dl.generate_pool");
  const spardl::ProfileGradientGenerator generator(spec.n, seed);
  const auto p = static_cast<size_t>(spec.num_workers);
  const size_t total = static_cast<size_t>(spec.pool_size) * p;
  pool->assign(static_cast<size_t>(spec.pool_size),
               std::vector<SparseVector>(p));
  std::vector<double> call_seconds(total);
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < total; i += threads) {
        const size_t update = i / p;
        const size_t rank = i % p;
        call_seconds[i] = TimeIt([&] {
          (*pool)[update][rank] = generator.Generate(
              static_cast<int>(rank),
              static_cast<int64_t>(update) * spec.pool_stride,
              spec.candidates());
        });
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return call_seconds;
}

/// One measured update: wall of `Cluster::Run`, its simulated snapshot.
struct UpdateSample {
  double wall_s = 0.0;
  double nnz = 0.0;
  SimSnapshot sim;
};

class UpdateRunner {
 public:
  UpdateRunner(const UpdateSpec& spec, const Pool& pool, SpanLog& spans,
               WorkloadResult* result)
      : spec_(spec), pool_(pool), spans_(spans), result_(result),
        log_(spec.num_workers, &spans),
        outs_(static_cast<size_t>(spec.num_workers)) {}

  CallLog& log() { return log_; }

  /// Runs update `index` (cycling the pool) and checks its outputs.
  UpdateSample RunUpdate(Instance& in, int64_t index) {
    const std::vector<SparseVector>& inputs =
        pool_[static_cast<size_t>(index % spec_.pool_size)];
    ScopedSpan update(spans_, "update", -1, index);
    log_.set_parent(update.id(), index);
    in.cluster->ResetClocksAndStats();
    UpdateSample sample;
    spardl::Status status;
    {
      ScopedSpan run(spans_, "simnet.cluster_run", update.id(), index);
      log_.set_parent(run.id(), index);
      sample.wall_s = TimeIt([&] {
        status = in.cluster->Run([&](Comm& comm) {
          const auto r = static_cast<size_t>(comm.rank());
          outs_[r] = in.algos[r]->RunOnSparse(comm, inputs[r]);
          comm.MarkIteration();
          comm.BarrierSyncClocks();
        });
      });
    }
    ++result_->attempted;
    if (!status.ok()) {
      result_->AddFailure("Cluster::Run: " + status.ToString());
      return sample;
    }
    {
      ScopedSpan check(spans_, "check", update.id(), index);
      const std::string error = CheckUpdateOutputs(
          outs_, spec_.n,
          spec_.k() + static_cast<size_t>(spec_.num_workers));
      if (!error.empty()) {
        result_->AddFailure("update " + std::to_string(index) + ": " + error);
      }
      sample.nnz = static_cast<double>(outs_[0].size());
    }
    {
      ScopedSpan snap(spans_, "obs.snapshot", update.id(), index);
      sample.sim = TakeSnapshot(*in.cluster, 1.0);
    }
    return sample;
  }

  /// Updates first_index, first_index+1, ... for about `seconds` and at
  /// least `spec.sim_updates`, stopping only after whole pool cycles so
  /// every input weighs the same in the window.
  std::vector<UpdateSample> Window(Instance& in, int64_t first_index,
                                   double seconds) {
    ScopedSpan window(spans_, "window");
    log_.Reset();
    std::vector<UpdateSample> samples;
    const double start = Now();
    for (int64_t i = first_index;; ++i) {
      samples.push_back(RunUpdate(in, i));
      if (result_->failed > 0) break;
      const auto done = static_cast<int>(samples.size());
      if (done < spec_.sim_updates || done % spec_.pool_size != 0) continue;
      // Stop at the cycle boundary nearest to `seconds`.
      const double elapsed = Now() - start;
      const double half_cycle = 0.5 * elapsed / done * spec_.pool_size;
      if (elapsed + half_cycle >= seconds) break;
    }
    return samples;
  }

 private:
  const UpdateSpec& spec_;
  const Pool& pool_;
  SpanLog& spans_;
  WorkloadResult* result_;
  CallLog log_;
  /// Each worker's global result of the latest update, by rank.
  std::vector<SparseVector> outs_;
};

std::vector<double> Walls(const std::vector<UpdateSample>& samples) {
  std::vector<double> walls;
  for (const UpdateSample& s : samples) walls.push_back(s.wall_s);
  return walls;
}

double UpdatesPerSecond(const std::vector<UpdateSample>& samples) {
  double sum = 0.0;
  for (const UpdateSample& s : samples) sum += s.wall_s;
  return static_cast<double>(samples.size()) / sum;
}

/// The first `count` samples' simulated values, which must repeat
/// bit-for-bit across runs, tracing on or off.
std::map<std::string, double> DeterministicSet(
    const std::vector<UpdateSample>& samples, int count) {
  std::vector<double> sim;
  std::vector<double> msgs;
  std::vector<double> words;
  for (int i = 0; i < count && i < static_cast<int>(samples.size()); ++i) {
    const SimSnapshot& s = samples[static_cast<size_t>(i)].sim;
    sim.push_back(1e3 * s.makespan_s);
    msgs.push_back(s.max_msgs_received);
    words.push_back(s.max_words_received);
  }
  return {{"sim_update_ms", Mean(sim)},
          {"core.msgs_per_update", Mean(msgs)},
          {"core.words_per_update", Mean(words)}};
}

WorkloadResult RunUpdateWorkload(const UpdateSpec& spec,
                                 const RunOptions& options) {
  WorkloadResult result;
  result.spans = std::make_unique<SpanLog>(options.trace, spec.num_workers);
  SpanLog& spans = *result.spans;

  Pool pool;
  const std::vector<double> generate_s =
      GeneratePool(spec, options.seed, spans, &pool);

  // Setup: construction plus one warm-up update, repeated; the warm-up's
  // simulated values must be identical on every repetition.
  UpdateRunner runner(spec, pool, spans, &result);
  std::vector<double> setup_s;
  std::vector<double> warmup_sim;
  Instance instance;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    instance = Instance();  // tear the previous one down outside the timer
    ScopedSpan span(spans, "setup");
    const double t0 = Now();
    instance = Build(spec, &runner.log());
    const UpdateSample warm = runner.RunUpdate(instance, 0);
    setup_s.push_back(Now() - t0);
    warmup_sim.push_back(warm.sim.makespan_s);
  }
  for (double s : warmup_sim) {
    if (s != warmup_sim[0]) {
      result.problems.push_back(
          "warm-up simulated makespan differs between setup repetitions");
      break;
    }
  }

  const std::vector<UpdateSample> untraced =
      runner.Window(instance, 1, options.seconds);
  const double ups = UpdatesPerSecond(untraced);
  result.deterministic = DeterministicSet(untraced, spec.sim_updates);
  AddEndToEnd(Walls(untraced), ups, result.deterministic["sim_update_ms"],
              setup_s, &result);
  {
    std::vector<double> nnz;
    for (const UpdateSample& s : untraced) nnz.push_back(s.nnz);
    result.info["core.result_nnz"] = Metric{Mean(nnz), "count"};
  }

  if (options.trace && result.failed == 0) {
    ProbeEngine(*instance.cluster, spans, &result);
    // The traced window repeats the untraced one from a fresh instance
    // with tracing on: same update indices, so the same simulated values.
    instance = Instance();
    instance = Build(spec, &runner.log());
    runner.RunUpdate(instance, 0);
    instance.cluster->EnableTracing();
    const std::vector<UpdateSample> traced =
        runner.Window(instance, 1, options.seconds);
    if (DeterministicSet(traced, spec.sim_updates) != result.deterministic) {
      result.problems.push_back(
          "traced window's simulated values differ from the untraced one");
    }
    std::vector<SimSnapshot> snapshots;
    std::vector<double> fill;
    std::vector<double> wall_us_per_msg;
    for (const UpdateSample& s : traced) {
      snapshots.push_back(s.sim);
      fill.push_back(s.nnz / static_cast<double>(spec.k()));
      wall_us_per_msg.push_back(1e6 * s.wall_s / s.sim.messages_sent);
    }
    AddSimLayerMetrics(snapshots, &result);
    const SimSnapshot& first = traced.front().sim;
    result.deterministic["topo.cp_queue_ms"] = 1e3 * first.cp_queue_s;
    result.deterministic["topo.cp_alpha_ms"] = 1e3 * first.cp_alpha_s;
    result.deterministic["topo.cp_serialize_ms"] = 1e3 * first.cp_serialize_s;

    AddCallMetrics(runner.log(), &result);
    auto& layer = result.per_layer;
    layer["core.result_fill"] = Metric{Mean(fill), "ratio"};
    layer["simnet.run_wall_ms"] = Metric{1e3 * Median(Walls(traced)), "ms"};
    layer["simnet.wall_us_per_message"] =
        Metric{Median(wall_us_per_msg), "us"};
    layer["dl.generate_ms"] = Metric{1e3 * Median(generate_s), "ms"};
    layer["obs.trace_overhead"] =
        Metric{UpdatesPerSecond(traced) / ups, "ratio"};
    ReplaySparseKernels(pool[0], spec.n, spec.k(), spans, &result);
  }
  result.info["peak_rss_mb"] = Metric{PeakRssMb(), "MB"};
  return result;
}

}  // namespace

WorkloadResult RunUpdateFlatP14(const RunOptions& options) {
  return RunUpdateWorkload(FlatP14(), options);
}

WorkloadResult RunUpdateFatTreeP1024(const RunOptions& options) {
  return RunUpdateWorkload(FatTreeP1024(), options);
}

}  // namespace perfbench
