// Shared pieces of the end-to-end benchmark binary: wall clock, the
// benchmark's own span log, the timing decorator around each worker's
// sparse All-Reduce, the per-update output checks, and the result record
// every workload fills in. Nothing here is part of the spardl library; it
// only calls its public API.

#ifndef SPARDL_PERFBENCH_HARNESS_H_
#define SPARDL_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/sparse_allreduce.h"
#include "simnet/cluster.h"
#include "sparse/sparse_vector.h"

namespace perfbench {

using spardl::Comm;
using spardl::SparseAllReduce;
using spardl::SparseVector;

/// Seconds since the process-wide benchmark epoch (steady clock).
double Now();

/// Wall seconds `fn` took.
template <typename Fn>
double TimeIt(Fn&& fn) {
  const double t0 = Now();
  fn();
  return Now() - t0;
}

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// The benchmark's own spans: one record per call into a layer, kept in
/// memory and written as JSON when the run ends. Each rank appends to its
/// own vector (the SPMD ownership the simulator already relies on), so
/// thread-per-worker recording needs no lock; rank -1 marks the
/// benchmark's own main-thread spans.
class SpanLog {
 public:
  /// A span; `parent` is a main-thread span's id (-1 = root).
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    int64_t update = -1;
    int rank = -1;
  };

  SpanLog(bool enabled, int num_workers);

  /// Opens a main-thread span and returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent, int64_t update);
  void End(int64_t id);

  /// Records a finished span from a worker.
  void Record(int rank, const Span& span);

  /// The span document: environment header plus every span.
  std::string Json(const std::string& header_json) const;

 private:
  bool enabled_;
  std::vector<Span> main_;
  std::vector<std::vector<Span>> workers_;
};

/// Opens a main-thread span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int64_t parent = -1,
             int64_t update = -1)
      : log_(log), id_(log.Begin(name, parent, update)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  int64_t id_;
};

/// What the timing decorator saw of one call into the algorithm.
struct CallRecord {
  double enter = 0.0;
  double exit = 0.0;
  /// Wall seconds since this worker's previous call returned (its own
  /// step between exchanges); negative on a worker's first call.
  double since_previous = -1.0;
};

/// Per-worker call records and, where the benchmark does not own the call
/// site (`TrainDistributed`), the returned vectors for the cross-worker
/// output check; each worker writes only into its own slot. `Reset`
/// between measured windows.
class CallLog {
 public:
  CallLog(int num_workers, SpanLog* spans);

  /// Drops calls and outputs (between measured windows).
  void Reset();
  /// Drops kept outputs only (after each update's check).
  void ClearOutputs();
  /// Keeps a copy of every returned vector (off by default: the copy is
  /// made inside the worker's call, so it would be timed with it).
  void set_capture_outputs(bool capture) { capture_outputs_ = capture; }
  /// Copies the dense input of each worker's next Run call.
  void set_capture_dense(bool capture) { capture_dense_ = capture; }
  /// Main-thread span the worker spans of the next calls hang under, and their
  /// update id (-1: number them by call order since the last `Reset`).
  void set_parent(int64_t parent, int64_t update) {
    parent_ = parent;
    update_ = update;
  }

  void OnCall(int rank, double enter, double exit, const char* name);
  void OnOutput(int rank, const SparseVector& out);
  void OnDense(int rank, std::span<const float> grad);

  int num_workers() const { return static_cast<int>(calls_.size()); }
  const std::vector<CallRecord>& calls(int rank) const {
    return calls_[static_cast<size_t>(rank)];
  }
  const std::vector<SparseVector>& outputs(int rank) const {
    return outputs_[static_cast<size_t>(rank)];
  }
  const std::vector<float>& dense(int rank) const {
    return dense_[static_cast<size_t>(rank)];
  }

 private:
  SpanLog* spans_;
  bool capture_outputs_ = false;
  bool capture_dense_ = false;
  int64_t parent_ = -1;
  int64_t update_ = -1;
  std::vector<std::vector<CallRecord>> calls_;
  std::vector<std::vector<SparseVector>> outputs_;
  std::vector<double> last_exit_;
  std::vector<std::vector<float>> dense_;
};

/// Decorates one worker's sparse All-Reduce with wall timing and, when the
/// log asks for it, output capture; the simulated behaviour is the inner algorithm's, untouched.
class TimedAlgorithm : public SparseAllReduce {
 public:
  TimedAlgorithm(std::unique_ptr<SparseAllReduce> inner, CallLog* log)
      : inner_(std::move(inner)), log_(log) {}

  SparseVector Run(Comm& comm, std::span<float> grad) override;
  SparseVector RunOnSparse(Comm& comm,
                           const SparseVector& candidates) override;
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<SparseAllReduce> inner_;
  CallLog* log_;
};

/// The per-update output check: every worker's global result equals
/// rank 0's (the `SparseAllReduce` post-condition), indices are strictly
/// increasing inside [0, n), values are finite, and nnz <= `max_nnz`.
/// Returns an empty string on success, else what failed.
std::string CheckUpdateOutputs(std::span<const SparseVector> per_worker,
                               size_t n, size_t max_nnz);

/// Unit of simulated milliseconds: deterministic for a given seed and
/// code, unlike the wall-clock "ms".
inline constexpr const char* kSimMs = "sim_ms";

/// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports back to `main`.
struct WorkloadResult {
  /// End-to-end metrics (always computed).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (computed by traced runs only).
  std::map<std::string, Metric> per_layer;
  /// Values that must repeat bit-for-bit for a given seed and code.
  std::map<std::string, double> deterministic;
  /// Measured extras printed in the table only (not gated).
  std::map<std::string, Metric> info;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failures of the in-run determinism gate and similar non-update
  /// checks (each one makes the run incorrect).
  std::vector<std::string> problems;
  /// First few output-check failure messages.
  std::vector<std::string> failures;
  /// The run's spans (written out at exit when tracing).
  std::unique_ptr<SpanLog> spans;

  void AddFailure(const std::string& what);
};

/// Fills in the end-to-end metrics every workload reports from its
/// untraced window: per-update walls, throughput, the deterministic
/// simulated time per update, and the set-up repetitions. Adds the p90
/// where the window holds at least 100 updates.
void AddEndToEnd(const std::vector<double>& update_walls_s,
                 double updates_per_s, double sim_update_ms,
                 const std::vector<double>& setup_s, WorkloadResult* result);

/// `core.call_wall_ms` and `dl.step_wall_ms` from the decorator's records.
void AddCallMetrics(const CallLog& log, WorkloadResult* result);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Peak resident set of this process, MB.
double PeakRssMb();

/// Unsets the variables that silently change what the program measures
/// (the execution backend, the fiber stack size and the bench harness
/// knobs) and returns their names. Call first thing in `main`: the library
/// reads them on first use.
std::vector<std::string> NeutraliseEnvironment();

}  // namespace perfbench

#endif  // SPARDL_PERFBENCH_HARNESS_H_
