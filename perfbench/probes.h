// Per-layer probes shared by the workloads: simulated-time snapshots of a
// finished run (core / simnet / topo / dl counters), replays of the
// `sparse` kernels on a workload's own inputs, and the `des` engine
// probes on a workload's own cluster.

#ifndef SPARDL_PERFBENCH_PROBES_H_
#define SPARDL_PERFBENCH_PROBES_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "harness.h"
#include "obs/trace.h"
#include "simnet/cluster.h"

namespace perfbench {

/// The simulated counters of one finished `Cluster::Run` window (since the
/// last `ResetClocksAndStats`), divided by the updates it held.
struct SimSnapshot {
  double updates = 1.0;
  double makespan_s = 0.0;
  double max_msgs_received = 0.0;
  double max_words_received = 0.0;
  double messages_sent = 0.0;
  /// Max over workers, per phase.
  std::array<double, spardl::kNumPhases> phase_max_s{};
  /// Critical path and link counters: traced windows only.
  bool cp_identity_ok = false;
  double cp_queue_s = 0.0;
  double cp_alpha_s = 0.0;
  double cp_serialize_s = 0.0;
  double max_link_util = 0.0;
  double max_link_queue_s = 0.0;

  double PerUpdate(double total) const { return total / updates; }
  double Phase(spardl::Phase phase) const {
    return PerUpdate(phase_max_s[static_cast<size_t>(phase)]);
  }
};

SimSnapshot TakeSnapshot(const spardl::Cluster& cluster, double updates);

/// Adds the per-layer `core.*`, `simnet.messages_per_update`,
/// `simnet.sim_barrier_ms`, `topo.*` and `dl.sim_compute_ms` metrics,
/// averaged over `snapshots` (each already per update).
void AddSimLayerMetrics(const std::vector<SimSnapshot>& snapshots,
                        WorkloadResult* result);

/// `sparse.*`: times TopKSparse, MergeSum, SumAll and TopKDense on the
/// workload's own candidate vectors (one per worker) at its own n and k,
/// reporting the median over repetitions in ns per input entry/element.
void ReplaySparseKernels(std::span<const SparseVector> candidates, size_t n,
                         size_t k, SpanLog& spans, WorkloadResult* result);

/// `des.empty_run_ms` / `des.barrier_run_ms`: `Cluster::Run` with a no-op
/// worker and with only `BarrierSyncClocks`, median over repetitions.
/// Leaves the cluster's clocks and stats reset.
void ProbeEngine(spardl::Cluster& cluster, SpanLog& spans,
                 WorkloadResult* result);

}  // namespace perfbench

#endif  // SPARDL_PERFBENCH_PROBES_H_
