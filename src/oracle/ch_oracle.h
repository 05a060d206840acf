// Contraction-hierarchy distance oracle over the road network.
//
// Offline, every vertex is assigned a rank by repeated contraction
// (edge-difference heuristic with lazy priority updates): contracting v
// removes it from an overlay graph and inserts shortcut arcs between its
// remaining neighbors wherever no witness path of equal-or-smaller length
// survives without v. The result is an *upward* graph: for each vertex,
// the original arcs and shortcuts leading to higher-ranked endpoints. On
// an undirected network that single upward CSR serves both directions of
// the query kernel (oracle/querier.h), which sweeps up from each endpoint
// and answers exact sd(u, v) in microseconds independent of graph diameter.
//
// Exactness, not approximation: edge weights are floats (24-bit mantissa)
// accumulated in doubles (53-bit), so every path-length sum at realistic
// scales is computed without rounding. Sums of the same arc multiset are
// therefore bit-equal regardless of association order, which makes oracle
// distances *bitwise identical* to Dijkstra's settled labels — the
// property the search layer relies on to keep answers bit-identical with
// the oracle on or off.
//
// Layout: the upward CSR is stored in *rank space* — node r of the CSR is
// the vertex contracted r-th, and arc targets are rank ids too. Every arc
// therefore points at a larger node id (Validate checks it), which gives
// the querier a topological order for free: it scans reached nodes in
// increasing id with no priority queue, each label final when its node
// comes up. The sweeps converge into the top of the hierarchy, which
// occupies the contiguous hot tail of the arrays; with the original-id
// layout every probe was a random access over the whole vertex universe
// and the kernel was memory-latency-bound.
// `ranks` maps original vertex id -> rank; queriers translate endpoints
// once on entry. Shortcut `via` vertices stay in original-id space (they
// name road vertices for path unpacking, not CSR nodes).
//
// The three columns (ranks, upward CSR offsets, upward arcs) are plain
// trivially-copyable arrays, so the oracle serializes as snapshot sections
// (storage/format.h, format v2) and loads back zero-copy via FromColumns.
//
// Core table: the top C = min(n, 512) rank nodes are the *core*, the dense
// top of the hierarchy that every upward search converges into. core()
// holds the exact distances among them, C x C doubles (2 MB at C = 512),
// which the querier joins instead of re-sweeping the top on every lookup.
// Every upward arc of a core node stays inside the core, and a shortest
// path between two core nodes has an up-down form inside it (its nodes
// outrank one endpoint or the other), so each row comes from one pass up
// the core in rank order and one pass down in reverse rank order (PHAST's
// order). Sums are exact as above, so each entry is bitwise the Dijkstra
// distance. The table is derived from the columns, built once on first
// use and never persisted.

#ifndef UOTS_ORACLE_CH_ORACLE_H_
#define UOTS_ORACLE_CH_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "net/graph.h"
#include "util/column_vec.h"
#include "util/status.h"

namespace uots {

/// \brief One upward arc of the hierarchy: an original road segment or a
/// contraction shortcut, pointing at a strictly higher-ranked vertex.
struct OracleEdge {
  VertexId to;     ///< higher-ranked endpoint, as a rank-space node id
  VertexId via;    ///< contracted middle vertex (shortcuts), original id;
                   ///< kInvalidVertex for original road segments
  double weight;   ///< exact double sum of the constituent float weights
};
static_assert(sizeof(OracleEdge) == 16, "oracle edge layout drifted");
static_assert(std::is_trivially_copyable_v<OracleEdge>,
              "oracle edges are persisted byte-for-byte in snapshots");

/// \brief Construction knobs.
struct OracleBuildOptions {
  /// Witness searches stop after settling this many vertices and add the
  /// shortcut conservatively. Redundant shortcuts cost query time, never
  /// correctness: their weight equals some real path, so they can only tie
  /// the minimum, not lower it.
  int witness_settle_limit = 256;
};

/// \brief Construction instrumentation (bench_oracle reports these).
struct OracleBuildStats {
  double seconds = 0.0;            ///< wall-clock construction time
  uint64_t shortcuts = 0;          ///< shortcut arcs added to the overlay
  uint64_t witness_searches = 0;   ///< bounded witness Dijkstras run
  uint64_t witness_settled = 0;    ///< vertices settled across all of them
};

/// \brief Exact distances among the core: the top `size` rank nodes,
/// [first, first + size).
struct OracleCore {
  uint32_t first = 0;        ///< lowest core rank node
  uint32_t size = 0;         ///< C = min(NumVertices(), kCoreSize)
  std::vector<double> dist;  ///< C x C row-major, kInfDistance if disconnected
  double build_ms = 0.0;     ///< wall time of the table build

  /// Distances from core node first + a to every core node, by core index.
  const double* Row(uint32_t a) const {
    return dist.data() + static_cast<size_t>(a) * size;
  }
};

/// \brief Immutable contraction hierarchy: ranks plus the upward CSR.
class DistanceOracle {
 public:
  /// Upper bound on the core's node count.
  static constexpr uint32_t kCoreSize = 512;

  /// Contracts every vertex of `g` and assembles the upward graph.
  /// Works on disconnected networks too (components never interact).
  static Result<DistanceOracle> Build(const RoadNetwork& g,
                                      const OracleBuildOptions& opts = {},
                                      OracleBuildStats* stats = nullptr);

  /// \brief Reassembles an oracle from prebuilt columns (e.g. views over
  /// validated snapshot sections) with no recomputation. The caller
  /// guarantees structural validity and backing-byte lifetime.
  static DistanceOracle FromColumns(ColumnVec<uint32_t> ranks,
                                    ColumnVec<uint64_t> up_offsets,
                                    ColumnVec<OracleEdge> up_edges);

  size_t NumVertices() const { return ranks_.size(); }
  size_t NumUpEdges() const { return up_edges_.size(); }
  /// Arcs that are contraction shortcuts rather than road segments (O(E)).
  size_t NumShortcuts() const;

  /// Contraction order of v; higher rank = contracted later.
  uint32_t RankOf(VertexId v) const { return ranks_[v]; }

  /// Upward arcs of rank-space node r (all targets are rank ids > r).
  std::span<const OracleEdge> UpNeighbors(uint32_t r) const {
    return {up_edges_.data() + up_offsets_[r],
            up_edges_.data() + up_offsets_[r + 1]};
  }

  /// Raw columns (snapshot persistence; see src/storage/).
  std::span<const uint32_t> ranks() const { return ranks_.span(); }
  std::span<const uint64_t> up_offsets() const { return up_offsets_.span(); }
  std::span<const OracleEdge> up_edges() const { return up_edges_.span(); }

  /// Structural self-check mirroring the snapshot loader's validation:
  /// ranks form a permutation, offsets span the arc array, every arc
  /// points at a strictly higher, in-range rank node with a positive
  /// finite weight, and per-node arc lists are strictly ascending by
  /// target. Used by tests and the `--oracle` build path.
  Status Validate() const;

  /// The core distance table. The first call builds it (~6 ms at
  /// BRN-15k); concurrent and later calls return the same object. Every
  /// OracleQuerier calls it on construction.
  const OracleCore& core() const;

  /// The columns, plus the core table once it is built.
  MemoryBreakdown Memory() const;

 private:
  DistanceOracle() = default;

  ColumnVec<uint32_t> ranks_;       ///< original vertex id -> rank node
  ColumnVec<uint64_t> up_offsets_;  ///< rank-indexed; size NumVertices()+1
  ColumnVec<OracleEdge> up_edges_;  ///< upward arcs, sorted by target per slice

  /// The lazily built core table; behind a pointer so the oracle stays
  /// movable. `built` lets Memory() read it without joining the build.
  struct LazyCore {
    std::once_flag once;
    std::atomic<bool> built{false};
    OracleCore table;
  };
  std::unique_ptr<LazyCore> core_ = std::make_unique<LazyCore>();
};

}  // namespace uots

#endif  // UOTS_ORACLE_CH_ORACLE_H_
