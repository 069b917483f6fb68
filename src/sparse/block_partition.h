#ifndef SPARDL_SPARSE_BLOCK_PARTITION_H_
#define SPARDL_SPARSE_BLOCK_PARTITION_H_

#include <cstddef>
#include <vector>

#include "sparse/sparse_vector.h"

namespace spardl {

/// Partition of a flat gradient of `n` elements into `num_blocks` contiguous
/// blocks of equal width ceil(n / num_blocks); the final block may be short
/// (or empty when n < num_blocks). Uniform width keeps the index->block map
/// a single division, which every algorithm here uses on the hot path.
class BlockPartition {
 public:
  BlockPartition(size_t n, int num_blocks);

  size_t n() const { return n_; }
  int num_blocks() const { return num_blocks_; }
  size_t block_width() const { return width_; }

  GradIndex BlockStart(int block) const {
    const size_t start = static_cast<size_t>(block) * width_;
    return static_cast<GradIndex>(start < n_ ? start : n_);
  }
  GradIndex BlockEnd(int block) const { return BlockStart(block + 1); }
  size_t BlockSize(int block) const {
    return static_cast<size_t>(BlockEnd(block) - BlockStart(block));
  }

  int BlockOf(GradIndex index) const {
    SPARDL_DCHECK_LT(static_cast<size_t>(index), n_);
    return static_cast<int>(index / width_);
  }

  /// Per-block sparsification budget for a global budget of k entries:
  /// ceil(k / num_blocks), at least 1. The paper's "top-k/P per block".
  size_t PerBlockBudget(size_t k) const;

 private:
  size_t n_;
  int num_blocks_;
  size_t width_;
};

/// One SRS bag, computed on the fly: `size()` consecutive blocks on the
/// circle, starting `first_offset` blocks after `rank`.
struct SrsBag {
  int num_workers = 1;
  int rank = 0;
  int first_offset = 0;
  int count = 0;

  size_t size() const { return static_cast<size_t>(count); }
  int operator[](size_t i) const {
    return (rank + first_offset + static_cast<int>(i)) % num_workers;
  }
};

/// The Spar-Reduce-Scatter bag layout for one worker (paper §III-B).
///
/// Worker w's P blocks are arranged on a circle starting at block w. Block w
/// itself forms the preservation bag B0. Sending bag Bi (1 <= i <= l,
/// l = ceil(log2 P)) holds the next 2^(i-1) blocks — w+2^(i-1) .. w+2^i-1
/// (mod P) — except the last bag, which holds only the E = P - 2^(l-1)
/// remaining blocks. Transmission step s (1-based) sends bag B_{l-s+1} to
/// worker w + 2^(l-s) and receives the matching bag from worker w - 2^(l-s).
class SrsBagLayout {
 public:
  /// Builds the layout for `rank` in a group of `num_workers` (>= 1).
  SrsBagLayout(int num_workers, int rank);

  /// l = ceil(log2 P); the number of transmission steps (0 when P == 1).
  static int NumSteps(int num_workers);

  int num_workers() const { return num_workers_; }
  int rank() const { return rank_; }
  int num_steps() const { return num_steps_; }

  /// Block ranks in bag `bag` (0 = preservation). Circular order.
  const std::vector<int>& Bag(int bag) const {
    SPARDL_DCHECK_LE(static_cast<size_t>(bag), bags_.size() - 1);
    return bags_[bag];
  }

  /// Bag `bag` of `rank`'s layout without building the layout, equal to
  /// `SrsBagLayout(num_workers, rank).Bag(bag)`: bag 0 is {rank}; bag
  /// b >= 1 is offsets [2^(b-1), min(2^b, P)) from `rank` on the circle.
  static SrsBag BagOf(int num_workers, int rank, int bag);

  /// The bag sent at transmission step `step` in [1, num_steps].
  int BagForStep(int step) const { return num_steps_ - step + 1; }

  /// Communication distance at `step`: 2^(l-step).
  int StepDistance(int step) const { return 1 << (num_steps_ - step); }

  /// Target worker at `step`: rank + distance (mod P).
  int SendPeer(int step) const {
    return (rank_ + StepDistance(step)) % num_workers_;
  }

  /// Source worker at `step`: rank - distance (mod P).
  int RecvPeer(int step) const {
    return (rank_ - StepDistance(step) % num_workers_ + num_workers_) %
           num_workers_;
  }

  /// Block ranks still held by this worker just before `step` (1-based;
  /// step = num_steps + 1 gives the final held set, i.e. {rank}).
  /// Held = all blocks minus bags already sent at steps < step.
  std::vector<int> HeldBlocksBeforeStep(int step) const;

 private:
  int num_workers_;
  int rank_;
  int num_steps_;
  std::vector<std::vector<int>> bags_;
};

}  // namespace spardl

#endif  // SPARDL_SPARSE_BLOCK_PARTITION_H_
