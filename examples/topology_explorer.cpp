// Explore how the choice of network fabric changes which sparse All-Reduce
// method wins, before deploying on a real cluster: runs SparDL (with and
// without teams) and the strongest baselines on a chosen topology and
// prints measured per-update costs next to the flat-model baseline.
//
//   $ ./build/examples/topology_explorer [topology] [P] [n] [k_ratio]
//
// `topology` is flat | star | ring | fattree |
// fattree:<rack>x<oversub>[x<cores>] | torus:<w>x<h> (e.g. "fattree:4x8"
// or the 2-core ECMP "fattree:4x8x2"), or "all" (default) to sweep every
// fabric.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "metrics/table.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

void ExploreOne(const TopologySpec& spec, size_t n, double k_ratio) {
  const ModelProfile profile = {"-", "synthetic", "-", n, 0.0};
  std::vector<std::pair<std::string, int>> methods = {
      {"topka", 1}, {"oktopk", 1}, {"gtopk", 1}, {"spardl", 1}};
  if (spec.num_workers % 2 == 0) methods.push_back({"spardl", 2});

  TablePrinter table({"method", "comm/update", "words/update", "msgs"});
  for (const auto& [algo, teams] : methods) {
    bench::PerUpdateOptions options;
    options.num_workers = spec.num_workers;
    options.k_ratio = k_ratio;
    options.num_teams = teams;
    options.topology = spec;
    options.measured_iterations = 2;
    const bench::PerUpdateResult r =
        bench::MeasurePerUpdate(algo, profile, options);
    table.AddRow({r.algo_label, HumanSeconds(r.comm_seconds),
                  StrFormat("%.0f", r.words_per_update),
                  StrFormat("%.0f", r.messages_per_update)});
  }
  std::printf("--- %s ---\n%s\n", spec.Describe().c_str(),
              table.ToString().c_str());
}

}  // namespace
}  // namespace spardl

int main(int argc, char** argv) {
  using namespace spardl;  // NOLINT
  const std::string topology = argc > 1 ? argv[1] : "all";
  const int p = argc > 2 ? std::atoi(argv[2]) : 8;
  const size_t n =
      argc > 3 ? static_cast<size_t>(std::atoll(argv[3])) : 2'000'000;
  const double k_ratio = argc > 4 ? std::atof(argv[4]) : 0.01;

  std::printf(
      "Topology explorer: measured per-update costs on simulated fabrics\n"
      "(P=%d, n=%zu, k/n=%g, Ethernet alpha-beta budget per hop)\n\n",
      p, n, k_ratio);

  std::vector<TopologySpec> specs;
  if (topology == "all") {
    specs = bench::DefaultFabricSweep(p);
  } else {
    auto parsed = TopologySpec::Parse(topology, p);
    // Build-validate too (e.g. a torus grid that does not hold P
    // workers), so a bad spec is a usage error, not a CHECK abort
    // mid-run.
    if (parsed.ok()) {
      if (auto built = (*parsed).Build(); !built.ok()) {
        parsed = built.status();
      }
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    specs.push_back(*parsed);
  }
  for (const TopologySpec& spec : specs) ExploreOne(spec, n, k_ratio);

  std::printf(
      "Reading: pick the method whose traffic shape matches your fabric — "
      "on oversubscribed racks, prefer team counts that keep SRS traffic "
      "rack-local; on high-latency multi-hop fabrics, fewer rounds beat "
      "lower volume.\n");
  return 0;
}
