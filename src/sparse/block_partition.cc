#include "sparse/block_partition.h"

#include <algorithm>

namespace spardl {

BlockPartition::BlockPartition(size_t n, int num_blocks)
    : n_(n), num_blocks_(num_blocks) {
  SPARDL_CHECK_GT(n, 0u);
  SPARDL_CHECK_GT(num_blocks, 0);
  width_ = (n + static_cast<size_t>(num_blocks) - 1) /
           static_cast<size_t>(num_blocks);
}

size_t BlockPartition::PerBlockBudget(size_t k) const {
  const size_t per_block =
      (k + static_cast<size_t>(num_blocks_) - 1) /
      static_cast<size_t>(num_blocks_);
  return std::max<size_t>(1, per_block);
}

int SrsBagLayout::NumSteps(int num_workers) {
  SPARDL_CHECK_GE(num_workers, 1);
  int steps = 0;
  while ((1 << steps) < num_workers) ++steps;
  return steps;
}

SrsBagLayout::SrsBagLayout(int num_workers, int rank)
    : num_workers_(num_workers),
      rank_(rank),
      num_steps_(NumSteps(num_workers)) {
  SPARDL_CHECK_GE(rank, 0);
  SPARDL_CHECK_LT(rank, num_workers);
  bags_.resize(static_cast<size_t>(num_steps_) + 1);
  bags_[0].push_back(rank_);
  // Walk the circle: offset j from the rank lands in bag floor(log2 j) + 1.
  int bag = 1;
  int bag_capacity = 1;  // 2^(bag-1)
  int in_bag = 0;
  for (int j = 1; j < num_workers_; ++j) {
    if (in_bag == bag_capacity) {
      ++bag;
      bag_capacity <<= 1;
      in_bag = 0;
    }
    bags_[static_cast<size_t>(bag)].push_back((rank_ + j) % num_workers_);
    ++in_bag;
  }
}

SrsBag SrsBagLayout::BagOf(int num_workers, int rank, int bag) {
  SPARDL_DCHECK(rank >= 0 && rank < num_workers);
  SPARDL_DCHECK(bag >= 0 && bag <= NumSteps(num_workers));
  if (bag == 0) return SrsBag{num_workers, rank, 0, 1};
  const int first = 1 << (bag - 1);
  const int end = std::min(first << 1, num_workers);
  return SrsBag{num_workers, rank, first, end - first};
}

std::vector<int> SrsBagLayout::HeldBlocksBeforeStep(int step) const {
  SPARDL_CHECK_GE(step, 1);
  // Sent so far: bags l, l-1, ..., l-step+2  (steps 1..step-1).
  std::vector<bool> sent(static_cast<size_t>(num_workers_), false);
  for (int s = 1; s < step; ++s) {
    for (int block : bags_[static_cast<size_t>(BagForStep(s))]) {
      sent[static_cast<size_t>(block)] = true;
    }
  }
  std::vector<int> held;
  for (int b = 0; b < num_workers_; ++b) {
    if (!sent[static_cast<size_t>(b)]) held.push_back(b);
  }
  return held;
}

}  // namespace spardl
