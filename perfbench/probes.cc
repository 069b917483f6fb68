#include "probes.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/analysis.h"
#include "obs/exporters.h"
#include "sparse/topk.h"

namespace perfbench {

using spardl::Phase;

SimSnapshot TakeSnapshot(const spardl::Cluster& cluster, double updates) {
  SimSnapshot s;
  s.updates = updates;
  s.makespan_s = cluster.MaxSimSeconds();
  s.max_msgs_received = static_cast<double>(cluster.MaxMessagesReceived());
  s.max_words_received = static_cast<double>(cluster.MaxWordsReceived());
  s.messages_sent = static_cast<double>(cluster.TotalStats().messages_sent);
  for (int r = 0; r < cluster.size(); ++r) {
    const auto& phases = cluster.WorkerStats(r).phase_seconds;
    for (size_t i = 0; i < spardl::kNumPhases; ++i) {
      s.phase_max_s[i] = std::max(s.phase_max_s[i], phases[i]);
    }
  }
  if (cluster.tracer() == nullptr) return s;
  const spardl::CriticalPathReport cp = spardl::ExtractCriticalPath(cluster);
  s.cp_identity_ok = cp.identity_ok;
  auto kind = [&](spardl::SegmentKind k) {
    return cp.by_kind[static_cast<size_t>(k)];
  };
  s.cp_queue_s = kind(spardl::SegmentKind::kLinkQueue);
  s.cp_alpha_s = kind(spardl::SegmentKind::kLinkAlpha);
  s.cp_serialize_s = kind(spardl::SegmentKind::kLinkSerialize);
  const spardl::RunMetrics metrics =
      spardl::CollectRunMetrics(cluster, "perfbench");
  for (const auto& link : metrics.links) {
    s.max_link_util = std::max(s.max_link_util, link.utilization);
    s.max_link_queue_s = std::max(s.max_link_queue_s, link.max_queue_seconds);
  }
  return s;
}

void AddSimLayerMetrics(const std::vector<SimSnapshot>& snapshots,
                        WorkloadResult* result) {
  auto mean = [&](auto per_update) {
    std::vector<double> values;
    for (const SimSnapshot& s : snapshots) values.push_back(per_update(s));
    return Mean(values);
  };
  auto put = [&](const char* name, double value, const char* unit) {
    result->per_layer[name] = Metric{value, unit};
  };
  auto phase_ms = [&](Phase phase) {
    return mean([&](const SimSnapshot& s) { return 1e3 * s.Phase(phase); });
  };
  put("core.sim_srs_ms", phase_ms(Phase::kSrs), kSimMs);
  put("core.sim_sag_ms", phase_ms(Phase::kSag), kSimMs);
  put("core.sim_allgather_ms", phase_ms(Phase::kAllGather), kSimMs);
  put("core.sim_sparsify_ms", phase_ms(Phase::kSparsify), kSimMs);
  put("core.sim_residual_ms", phase_ms(Phase::kResidual), kSimMs);
  put("core.msgs_per_update", mean([](const SimSnapshot& s) {
        return s.PerUpdate(s.max_msgs_received);
      }),
      "count");
  put("core.words_per_update", mean([](const SimSnapshot& s) {
        return s.PerUpdate(s.max_words_received);
      }),
      "words");
  put("simnet.messages_per_update", mean([](const SimSnapshot& s) {
        return s.PerUpdate(s.messages_sent);
      }),
      "count");
  put("simnet.sim_barrier_ms", phase_ms(Phase::kBarrier), kSimMs);
  put("dl.sim_compute_ms", phase_ms(Phase::kCompute), kSimMs);
  put("topo.max_link_util",
      mean([](const SimSnapshot& s) { return s.max_link_util; }), "ratio");
  put("topo.max_link_queue_ms",
      mean([](const SimSnapshot& s) { return 1e3 * s.max_link_queue_s; }),
      kSimMs);
  put("topo.cp_queue_ms", mean([](const SimSnapshot& s) {
        return 1e3 * s.PerUpdate(s.cp_queue_s);
      }),
      kSimMs);
  put("topo.cp_alpha_ms", mean([](const SimSnapshot& s) {
        return 1e3 * s.PerUpdate(s.cp_alpha_s);
      }),
      kSimMs);
  put("topo.cp_serialize_ms", mean([](const SimSnapshot& s) {
        return 1e3 * s.PerUpdate(s.cp_serialize_s);
      }),
      kSimMs);
  for (const SimSnapshot& s : snapshots) {
    if (!s.cp_identity_ok) {
      result->problems.push_back(
          "critical path does not tile the makespan (identity broken)");
      break;
    }
  }
}

namespace {

/// Median ns per unit of `fn` over `reps` calls.
template <typename Fn>
double NsPer(double units, int reps, SpanLog& spans, const char* name,
             int64_t parent, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(spans, name, parent);
    samples.push_back(TimeIt(fn));
  }
  return 1e9 * Median(samples) / units;
}

}  // namespace

void ReplaySparseKernels(std::span<const SparseVector> candidates, size_t n,
                         size_t k, SpanLog& spans, WorkloadResult* result) {
  SPARDL_CHECK_GE(candidates.size(), 2u);
  ScopedSpan root(spans, "sparse.replay");
  constexpr int kReps = 7;
  const SparseVector& a = candidates[0];
  const SparseVector& b = candidates[1];
  size_t total = 0;
  for (const SparseVector& c : candidates) total += c.size();

  SparseVector kept;
  SparseVector discarded;
  // Re-selecting k of one worker's candidates is what SRS does to a bag.
  const size_t select = std::min(k, a.size() / 2);
  result->per_layer["sparse.topk_sparse_ns_per_entry"] = Metric{
      NsPer(static_cast<double>(a.size()), kReps, spans, "sparse.topk_sparse",
            root.id(),
            [&] { spardl::TopKSparse(a, select, &kept, &discarded); }),
      "ns"};
  SparseVector merged;
  result->per_layer["sparse.merge_sum_ns_per_entry"] = Metric{
      NsPer(static_cast<double>(a.size() + b.size()), kReps, spans,
            "sparse.merge_sum", root.id(),
            [&] { spardl::MergeSum(a, b, &merged); }),
      "ns"};
  result->per_layer["sparse.sum_all_ns_per_entry"] = Metric{
      NsPer(static_cast<double>(total), kReps, spans, "sparse.sum_all",
            root.id(), [&] { merged = spardl::SumAll(candidates); }),
      "ns"};
  std::vector<float> dense(n, 0.0f);
  a.ScatterToDense(dense);
  result->per_layer["sparse.topk_dense_ns_per_elem"] = Metric{
      NsPer(static_cast<double>(n), kReps, spans, "sparse.topk_dense",
            root.id(), [&] { spardl::TopKDense(dense, 0, k, &kept); }),
      "ns"};
}

void ProbeEngine(spardl::Cluster& cluster, SpanLog& spans,
                 WorkloadResult* result) {
  ScopedSpan root(spans, "des.probe");
  constexpr int kReps = 7;
  std::vector<double> empty;
  std::vector<double> barrier;
  for (int i = 0; i < kReps; ++i) {
    cluster.ResetClocksAndStats();
    {
      ScopedSpan span(spans, "des.empty_run", root.id());
      empty.push_back(TimeIt(
          [&] { SPARDL_CHECK_OK(cluster.Run([](spardl::Comm&) {})); }));
    }
    {
      ScopedSpan span(spans, "des.barrier_run", root.id());
      barrier.push_back(TimeIt([&] {
        SPARDL_CHECK_OK(cluster.Run(
            [](spardl::Comm& comm) { comm.BarrierSyncClocks(); }));
      }));
    }
  }
  cluster.ResetClocksAndStats();
  result->per_layer["des.empty_run_ms"] = Metric{1e3 * Median(empty), "ms"};
  result->per_layer["des.barrier_run_ms"] =
      Metric{1e3 * Median(barrier), "ms"};
}

}  // namespace perfbench
