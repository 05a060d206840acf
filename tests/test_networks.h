// Networks and vertex picks shared by the oracle and trip tests.

#ifndef UOTS_TESTS_TEST_NETWORKS_H_
#define UOTS_TESTS_TEST_NETWORKS_H_

#include <vector>

#include "net/generators.h"
#include "oracle/ch_oracle.h"

namespace uots {

/// The 40x40 grid of oracle_test's SampledPairsExactOnLargerNetworks:
/// 1,600 vertices, so the oracle's core (its top DistanceOracle::kCoreSize
/// ranks) is a third of the hierarchy and lookups both sweep below the
/// core and finish through its table.
inline GridNetworkOptions LargerGridOptions() {
  GridNetworkOptions opts;
  opts.rows = 40;
  opts.cols = 40;
  opts.removal_rate = 0.05;
  opts.seed = 3;
  return opts;
}

/// The vertices among the oracle's core ranks (all of them on a network
/// of at most kCoreSize vertices), ascending by vertex id.
inline std::vector<VertexId> CoreVertices(const DistanceOracle& oracle) {
  const uint32_t first = oracle.core().first;
  std::vector<VertexId> out;
  for (VertexId v = 0; v < static_cast<VertexId>(oracle.NumVertices());
       ++v) {
    if (oracle.RankOf(v) >= first) out.push_back(v);
  }
  return out;
}

}  // namespace uots

#endif  // UOTS_TESTS_TEST_NETWORKS_H_
