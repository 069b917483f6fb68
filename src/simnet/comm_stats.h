#ifndef SPARDL_SIMNET_COMM_STATS_H_
#define SPARDL_SIMNET_COMM_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/trace.h"

namespace spardl {

/// Per-worker communication counters, accumulated by `Comm`.
///
/// `messages_received` counts latency units (each receive costs one alpha on
/// the receiving worker's critical path); `words_received` counts bandwidth
/// units (the paper's y in x*alpha + y*beta). Table I validation compares
/// these directly against the closed-form expressions.
struct CommStats {
  uint64_t messages_sent = 0;
  uint64_t words_sent = 0;
  uint64_t messages_received = 0;
  uint64_t words_received = 0;

  /// Simulated seconds spent in Recv (waiting + transfer).
  double comm_seconds = 0.0;
  /// Simulated seconds charged via Comm::Compute.
  double compute_seconds = 0.0;

  /// Phase-bucketed breakdown, maintained whether or not tracing is on.
  /// The comm tags (`IsCommPhase`) partition `comm_seconds` by the phase
  /// active at each Recv; `kCompute` mirrors `compute_seconds`; `kBarrier`
  /// and `kOverlapIdle` account waits charged to neither aggregate.
  std::array<double, kNumPhases> phase_seconds{};

  /// Sum of the comm-tagged buckets — equals `comm_seconds` up to
  /// floating-point summation order.
  double CommPhaseSum() const {
    double sum = 0.0;
    for (size_t i = 0; i < kNumPhases; ++i) {
      if (IsCommPhase(static_cast<Phase>(i))) sum += phase_seconds[i];
    }
    return sum;
  }

  void Reset() { *this = CommStats{}; }

  CommStats& operator+=(const CommStats& other) {
    messages_sent += other.messages_sent;
    words_sent += other.words_sent;
    messages_received += other.messages_received;
    words_received += other.words_received;
    comm_seconds += other.comm_seconds;
    compute_seconds += other.compute_seconds;
    for (size_t i = 0; i < kNumPhases; ++i) {
      phase_seconds[i] += other.phase_seconds[i];
    }
    return *this;
  }

  /// Exact, field by field (the carrier-equivalence tests demand
  /// bit-identical accounting).
  bool operator==(const CommStats& other) const = default;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_COMM_STATS_H_
