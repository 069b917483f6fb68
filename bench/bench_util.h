#ifndef SPARDL_BENCH_BENCH_UTIL_H_
#define SPARDL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "dl/grad_profile.h"
#include "simnet/cluster.h"
#include "topo/placement.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace bench {

/// Shared harness CLI: every bench main accepts
///
///   --workers=N / --workers N       cluster size override
///   --iterations=N / --iterations N measured iterations override
///   --topology=SPEC                 fabric override ("fattree:4x8x2", ...)
///   --backend=thread|fiber          worker execution backend override
///   --placement=POLICY              team layout (contiguous|rack|interleaved)
///   --trace-out=PATH                Chrome trace JSON of the last traced run
///   --metrics-out=PATH              structured run-metrics JSON (all runs)
///   --timeseries-out=PATH           per-iteration time-series JSON (last run)
///   --protocol-check                attach the SPMD protocol verifier
///
/// The command line is the only source of these settings
/// (`SPARDL_EXEC_BACKEND` only sets the process default that `--backend`
/// overrides). Unknown flags, positional arguments and bad values exit 2
/// with a usage message.
///
/// `ParseHarnessArgs` also installs the parsed flags process-globally.
/// Every bench that builds a `Cluster` hands it to `PrepareCluster` before
/// running workers and to `ObserveRun` after its measured run; the shared
/// measurement helpers (`MeasurePerUpdate`, `RunTrainingCase`) do both
/// themselves. So `--backend`, `--protocol-check` and the output sinks
/// reach every cluster. `--workers`, `--iterations`, `--topology` and
/// `--placement` are read by each bench through the accessors below;
/// benches whose figure fixes the fabric or has no team layout (e.g.
/// fig8, fig12, fig18, table1) still ignore the last two.
struct HarnessArgs {
  std::optional<int> workers;
  std::optional<int> iterations;
  /// A `TopologySpec::Parse` string.
  std::optional<std::string> topology;
  /// `--backend thread|fiber`: worker execution backend for every
  /// cluster this bench builds (unset = the process default,
  /// `Cluster::DefaultExecBackend`).
  std::optional<ExecBackend> backend;
  std::optional<PlacementPolicy> placement;
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  std::optional<std::string> timeseries_out;
  /// `--protocol-check`: run every cluster with the SPMD protocol
  /// verifier attached; a diagnosed divergence aborts the bench with the
  /// verifier's report.
  bool protocol_check = false;

  int workers_or(int fallback) const { return workers.value_or(fallback); }
  int iterations_or(int fallback) const {
    return iterations.value_or(fallback);
  }
  PlacementPolicy placement_or(PlacementPolicy fallback) const {
    return placement.value_or(fallback);
  }

  /// The fabric this run should use: `--topology` (parsed with `workers`
  /// and `cost`) when given, else `fallback` (nullopt = the bench's
  /// default, usually flat). Parse errors abort with a usage message.
  std::optional<TopologySpec> TopologyOr(
      std::optional<TopologySpec> fallback, int num_workers,
      CostModel cost = CostModel::Ethernet()) const;
};

HarnessArgs ParseHarnessArgs(int argc, char** argv);

/// Applies the last parsed harness flags to a freshly built `cluster`:
/// the `--backend` selection, span recording when any output sink
/// (--trace-out / --metrics-out / --timeseries-out) was given, and the
/// protocol verifier under `--protocol-check`. Call after construction,
/// before running workers.
void PrepareCluster(Cluster& cluster);

/// Records one finished measurement run against the configured sinks:
/// appends the run's `RunMetrics` (with its embedded critical-path
/// analysis) and rewrites the metrics JSON, and rewrites the Chrome trace
/// and time-series JSON with this cluster's data (multiple observed runs:
/// the *last* trace/time-series wins; the metrics file keeps every run).
/// Prints the top-links, critical-path, what-if, and straggler tables to
/// stdout; a worker is a straggler past `kDefaultStragglerFactor` times
/// the median. Exits non-zero with a message on any write failure. No-op
/// when no output sink was given.
void ObserveRun(Cluster& cluster, const std::string& label);

/// The default fabric sweep shared by `bench_ext_topology` and
/// `examples/topology_explorer`: flat, star, two-rack fat-tree
/// (single-core and 2-core ECMP), ring, and — for even P >= 4 — a
/// (P/2) x 2 torus. One list so the two surfaces cannot drift.
std::vector<TopologySpec> DefaultFabricSweep(
    int num_workers, CostModel cost = CostModel::Ethernet());

/// Resolves a run's fabric from an optional per-options override: falls
/// back to the flat `cost_model` crossbar, fills a 0 worker count in the
/// spec from `num_workers`, and CHECKs the two agree. Shared by
/// `MeasurePerUpdate` and `RunTrainingCase` so the per-update benches and
/// the convergence harnesses can never resolve a `TopologySpec`
/// differently.
TopologySpec ResolveFabric(const std::optional<TopologySpec>& topology,
                           int num_workers, CostModel cost_model);

/// Result of measuring one method's per-update communication on a
/// paper-scale gradient profile.
struct PerUpdateResult {
  std::string algo_label;
  /// Simulated communication seconds per update (max over workers,
  /// averaged over measured iterations).
  double comm_seconds = 0.0;
  /// Modelled forward+backward seconds (the profile's compute constant).
  double compute_seconds = 0.0;
  /// Per-worker received words / messages per update (max over workers).
  double words_per_update = 0.0;
  double messages_per_update = 0.0;
  /// Simulator cost, not simulated time: scheduler predicate
  /// evaluations per delivered message over the measured iterations.
  double wake_evals_per_message = 0.0;

  double total_seconds() const { return comm_seconds + compute_seconds; }
};

/// Options for a per-update measurement run.
struct PerUpdateOptions {
  int num_workers = 14;
  double k_ratio = 0.01;
  CostModel cost_model = CostModel::Ethernet();
  /// When set, the cluster runs on this fabric instead of the flat
  /// `cost_model` crossbar. A `num_workers` of 0 in the spec inherits
  /// `num_workers` above; otherwise the two must agree.
  std::optional<TopologySpec> topology;
  /// Candidate entries per worker = candidate_factor * k.
  double candidate_factor = 1.5;
  int warmup_iterations = 1;
  int measured_iterations = 2;
  int num_teams = 1;          // for "spardl"
  /// Team layout planned against the run's resolved fabric (for "spardl"
  /// with num_teams > 1; ignored by the baselines).
  PlacementPolicy placement = PlacementPolicy::kContiguous;
  uint64_t seed = 2024;
  /// Heterogeneous compute (the §VI extension on the compute side):
  /// (worker, multiplier) pairs fed to
  /// `ProfileGradientGenerator::SetComputeMultiplier`. When non-empty,
  /// every worker charges `profile.compute_seconds` (scaled by its
  /// multiplier) to its clock each iteration, so compute-slow workers
  /// surface in the per-iteration straggler report. Empty (default)
  /// keeps the legacy communication-only measurement.
  std::vector<std::pair<int, double>> compute_multipliers;
};

/// Runs `algo_name` on synthetic candidate gradients of `profile`'s size
/// and returns the per-update costs. Residual collection is disabled (the
/// O(n) dense buffer would not fit for 133.5M-parameter profiles); this
/// matches the paper's per-update-time measurements, which isolate
/// communication.
PerUpdateResult MeasurePerUpdate(const std::string& algo_name,
                                 const ModelProfile& profile,
                                 const PerUpdateOptions& options);

/// Convenience: measure several methods under the same options.
std::vector<PerUpdateResult> MeasurePerUpdateAll(
    const std::vector<std::string>& algo_names, const ModelProfile& profile,
    const PerUpdateOptions& options);

/// One (d, placement) cell of a team-tuning grid search.
struct TeamTuneCandidate {
  int num_teams = 1;
  PlacementPolicy placement = PlacementPolicy::kContiguous;
  std::string algo_label;
  /// Simulated comm+compute seconds for one epoch on the tuned fabric.
  double epoch_seconds = 0.0;
};

struct TeamTuneResult {
  std::vector<TeamTuneCandidate> candidates;
  /// Index into `candidates` of the fastest cell.
  size_t best_index = 0;

  const TeamTuneCandidate& best() const { return candidates[best_index]; }
};

struct TeamTuneOptions {
  double k_ratio = 0.01;
  int iterations_per_epoch = 30;
  int measured_iterations = 2;
  /// Placement policies to grid over. On a single-locality-group fabric
  /// (flat/star/ring) every policy yields the same simulated times, so
  /// the grid collapses to kContiguous there; d = 1 rows likewise carry
  /// only one placement cell.
  std::vector<PlacementPolicy> policies = AllPlacementPolicies();
};

/// The paper's §III-D/§IV-G team-count selection, generalised to a
/// (d, placement) grid over the *given* fabric: one simulated epoch of
/// `spardl` per divisor d of `fabric.num_workers` per placement policy.
/// This is the engine behind `examples/tune_teams` — and the regression
/// surface for the historical bug where the tuner ignored the requested
/// topology and always tuned d on the flat closed-form fabric.
TeamTuneResult TuneTeamPlacement(const ModelProfile& profile,
                                 const TopologySpec& fabric,
                                 const TeamTuneOptions& options);

}  // namespace bench
}  // namespace spardl

#endif  // SPARDL_BENCH_BENCH_UTIL_H_
