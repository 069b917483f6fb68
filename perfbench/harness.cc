#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

SpanLog::SpanLog(bool enabled, int num_workers)
    : enabled_(enabled),
      workers_(static_cast<size_t>(enabled ? num_workers : 0)) {}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t update) {
  if (!enabled_) return -1;
  main_.push_back(Span{name, Now(), 0.0, parent, update, -1});
  return static_cast<int64_t>(main_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  if (id >= 0) main_[static_cast<size_t>(id)].end = Now();
}

void SpanLog::Record(int rank, const Span& span) {
  if (enabled_) workers_[static_cast<size_t>(rank)].push_back(span);
}

std::string SpanLog::Json(const std::string& header_json) const {
  std::string out = "{\"schema\": \"spardl-perfbench-spans/1\", \"env\": ";
  out += header_json;
  out += ", \"spans\": [\n";
  bool first = true;
  char line[256];
  // Main-thread spans keep their index as id; worker spans follow.
  int64_t next_id = static_cast<int64_t>(main_.size());
  auto emit = [&](int64_t id, const Span& s) {
    std::snprintf(line, sizeof(line),
                  "%s{\"id\": %lld, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %lld, \"update\": %lld, "
                  "\"rank\": %d}",
                  first ? "" : ",\n", static_cast<long long>(id), s.name,
                  s.start, s.end, static_cast<long long>(s.parent),
                  static_cast<long long>(s.update), s.rank);
    out += line;
    first = false;
  };
  for (size_t i = 0; i < main_.size(); ++i) {
    emit(static_cast<int64_t>(i), main_[i]);
  }
  for (const auto& spans : workers_) {
    for (const Span& s : spans) emit(next_id++, s);
  }
  out += "\n]}\n";
  return out;
}

CallLog::CallLog(int num_workers, SpanLog* spans)
    : spans_(spans),
      calls_(static_cast<size_t>(num_workers)),
      outputs_(static_cast<size_t>(num_workers)),
      last_exit_(static_cast<size_t>(num_workers), -1.0),
      dense_(static_cast<size_t>(num_workers)) {}

void CallLog::Reset() {
  for (auto& c : calls_) c.clear();
  for (auto& o : outputs_) o.clear();
  std::fill(last_exit_.begin(), last_exit_.end(), -1.0);
}

void CallLog::ClearOutputs() {
  for (auto& o : outputs_) o.clear();
}

void CallLog::OnCall(int rank, double enter, double exit, const char* name) {
  const auto r = static_cast<size_t>(rank);
  const double since =
      last_exit_[r] < 0.0 ? -1.0 : enter - last_exit_[r];
  const auto update =
      update_ >= 0 ? update_ : static_cast<int64_t>(calls_[r].size());
  calls_[r].push_back(CallRecord{enter, exit, since});
  last_exit_[r] = exit;
  spans_->Record(rank, SpanLog::Span{name, enter, exit, parent_, update,
                                     rank});
}

void CallLog::OnOutput(int rank, const SparseVector& out) {
  if (capture_outputs_) outputs_[static_cast<size_t>(rank)].push_back(out);
}

void CallLog::OnDense(int rank, std::span<const float> grad) {
  if (!capture_dense_) return;
  auto& slot = dense_[static_cast<size_t>(rank)];
  if (slot.empty()) slot.assign(grad.begin(), grad.end());
}

SparseVector TimedAlgorithm::Run(Comm& comm, std::span<float> grad) {
  log_->OnDense(comm.rank(), grad);
  const double enter = Now();
  SparseVector out = inner_->Run(comm, grad);
  log_->OnCall(comm.rank(), enter, Now(), "core.run");
  log_->OnOutput(comm.rank(), out);
  return out;
}

SparseVector TimedAlgorithm::RunOnSparse(Comm& comm,
                                         const SparseVector& candidates) {
  const double enter = Now();
  SparseVector out = inner_->RunOnSparse(comm, candidates);
  log_->OnCall(comm.rank(), enter, Now(), "core.run_on_sparse");
  log_->OnOutput(comm.rank(), out);
  return out;
}

std::string CheckUpdateOutputs(std::span<const SparseVector> per_worker,
                               size_t n, size_t max_nnz) {
  if (per_worker.empty()) return "no worker returned a result";
  const SparseVector& ref = per_worker[0];
  for (size_t r = 1; r < per_worker.size(); ++r) {
    if (!(per_worker[r] == ref)) {
      return "worker " + std::to_string(r) +
             "'s global result differs from rank 0's";
    }
  }
  if (ref.size() > max_nnz) {
    return "nnz " + std::to_string(ref.size()) + " exceeds the bound " +
           std::to_string(max_nnz);
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (static_cast<size_t>(ref.index(i)) >= n) {
      return "index " + std::to_string(ref.index(i)) + " outside [0, " +
             std::to_string(n) + ")";
    }
    if (i > 0 && ref.index(i) <= ref.index(i - 1)) {
      return "indices not strictly increasing at entry " + std::to_string(i);
    }
    if (!std::isfinite(ref.value(i))) {
      return "non-finite value at index " + std::to_string(ref.index(i));
    }
  }
  return "";
}

void WorkloadResult::AddFailure(const std::string& what) {
  ++failed;
  if (failures.size() < 5) failures.push_back(what);
}

void AddEndToEnd(const std::vector<double>& update_walls_s,
                 double updates_per_s, double sim_update_ms,
                 const std::vector<double>& setup_s, WorkloadResult* result) {
  result->end_to_end["updates_per_s"] = Metric{updates_per_s, "1/s"};
  result->end_to_end["update_wall_ms_p50"] =
      Metric{1e3 * Median(update_walls_s), "ms"};
  result->end_to_end["sim_update_ms"] = Metric{sim_update_ms, kSimMs};
  result->end_to_end["setup_s"] = Metric{Median(setup_s), "s"};
  if (update_walls_s.size() >= 100) {
    result->info["update_wall_ms_p90"] =
        Metric{1e3 * Quantile(update_walls_s, 0.9), "ms"};
  }
  result->info["updates_measured"] =
      Metric{static_cast<double>(update_walls_s.size()), "count"};
}

void AddCallMetrics(const CallLog& log, WorkloadResult* result) {
  std::vector<double> call_ms;
  std::vector<double> step_ms;
  for (int r = 0; r < log.num_workers(); ++r) {
    for (const CallRecord& c : log.calls(r)) {
      call_ms.push_back(1e3 * (c.exit - c.enter));
      if (c.since_previous >= 0.0) step_ms.push_back(1e3 * c.since_previous);
    }
  }
  result->per_layer["core.call_wall_ms"] = Metric{Median(call_ms), "ms"};
  result->per_layer["dl.step_wall_ms"] = Metric{Median(step_ms), "ms"};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::vector<std::string> NeutraliseEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    if (name == "SPARDL_EXEC_BACKEND" || name == "SPARDL_FIBER_STACK_KB" ||
        name.rfind("SPARDL_BENCH_", 0) == 0) {
      names.push_back(name);
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

}  // namespace perfbench
