// The benchmark's workloads. Each builds its inputs from the run's seed,
// measures for the run's seconds, checks every update, and fills in the
// end-to-end metrics; traced runs add the per-layer ones.

#ifndef SPARDL_PERFBENCH_WORKLOADS_H_
#define SPARDL_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// VGG-19 profile, P = 14, SparDL d = 7 (B-SAG), flat Ethernet, fibers.
WorkloadResult RunUpdateFlatP14(const RunOptions& options);

/// Synthetic n = 4M, P = 1024, SparDL d = 1, oversubscribed fat-tree on
/// the event engine, fibers.
WorkloadResult RunUpdateFatTreeP1024(const RunOptions& options);

/// LSTM-PTB case through `TrainDistributed`, P = 4, SparDL d = 2 (R-SAG)
/// with GRES, on the program's default execution backend.
WorkloadResult RunTrainLstmP4(const RunOptions& options);

}  // namespace perfbench

#endif  // SPARDL_PERFBENCH_WORKLOADS_H_
