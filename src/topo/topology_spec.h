#ifndef SPARDL_TOPO_TOPOLOGY_SPEC_H_
#define SPARDL_TOPO_TOPOLOGY_SPEC_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "simnet/cost_model.h"
#include "topo/topology.h"

namespace spardl {

/// Which fabric layout a `TopologySpec` builds.
enum class TopologyKind {
  kFlat,     // single crossbar; the paper's flat alpha-beta model
  kStar,     // all workers behind one switch
  kFatTree,  // racks behind ToRs, oversubscribed trunks to ECMP'd cores
  kRing,     // neighbour links only
  kTorus,    // 2D grid of per-direction rings
};

std::string_view TopologyKindName(TopologyKind kind);

/// Value-type description of a simulated fabric. Copyable, validated at
/// `Build` time, and threadable through configs/benches/CLIs — the one
/// knob that lets every algorithm, baseline, bench, and example run on any
/// topology unchanged (`Cluster` accepts it directly).
struct TopologySpec {
  TopologyKind kind = TopologyKind::kFlat;
  /// Cluster size P. Benches treat 0 as "fill in from their own worker
  /// count"; `Build` rejects it.
  int num_workers = 0;
  /// The reference alpha-beta budget; concrete topologies split it across
  /// hops so an uncontended one-hop-equivalent message still costs
  /// alpha + beta*words.
  CostModel cost = CostModel::Ethernet();
  /// Unused: every fabric runs on the event engine. Kept only so callers
  /// that still set it keep compiling.
  ChargeEngine engine = ChargeEngine::kEventOrdered;
  /// Fat-tree only: workers per rack.
  int rack_size = 4;
  /// Fat-tree only: trunk beta multiplier (> 1 = under-provisioned rack
  /// uplink).
  double oversubscription = 4.0;
  /// Fat-tree only: number of core switches; cross-rack flows are spread
  /// across them by deterministic ECMP hashing.
  int num_cores = 1;
  /// Torus only: grid dimensions; `Build` requires
  /// num_workers == torus_width * torus_height.
  int torus_width = 0;
  int torus_height = 0;

  static TopologySpec Flat(int num_workers,
                           CostModel cost = CostModel::Ethernet());
  static TopologySpec Star(int num_workers,
                           CostModel cost = CostModel::Ethernet());
  static TopologySpec FatTree(int num_workers, int rack_size,
                              double oversubscription,
                              CostModel cost = CostModel::Ethernet(),
                              int num_cores = 1);
  static TopologySpec Ring(int num_workers,
                           CostModel cost = CostModel::Ethernet());
  static TopologySpec Torus(int width, int height,
                            CostModel cost = CostModel::Ethernet());

  /// Parses "flat", "star", "ring", "fattree",
  /// "fattree:<rack_size>x<oversub>[x<cores>]" (e.g. "fattree:4x8" or the
  /// ECMP'd "fattree:4x8x2"), or "torus:<width>x<height>" (e.g.
  /// "torus:4x2"). `num_workers` and `cost` fill the corresponding
  /// fields.
  static Result<TopologySpec> Parse(std::string_view text, int num_workers,
                                    CostModel cost = CostModel::Ethernet());

  /// Validates and instantiates the fabric.
  Result<std::unique_ptr<Topology>> Build() const;

  /// One-line human description, e.g. "fattree(P=8, racks of 4, oversub
  /// 4.0)".
  std::string Describe() const;
};

}  // namespace spardl

#endif  // SPARDL_TOPO_TOPOLOGY_SPEC_H_
