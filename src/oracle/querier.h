// Rank-order upward-sweep query kernel over the contraction hierarchy.
//
// An upward search visits the nodes it reaches in increasing rank id. The
// upward CSR lives in rank space and every arc points at a larger id
// (DistanceOracle::Validate), so all arcs into a node come from smaller
// ids: by the time the sweep reaches node u, every reached node that can
// improve u's label has been scanned, and the label is final. That is the
// topological-order idea of PHAST's sweep, restricted to the nodes the
// search actually reaches: a pending bitset over ranks scanned word by
// word with count-trailing-zeros replaces the heap and its decrease-key,
// and labels live in a plain double array reset through a touched list.
//
// Sweeps stop at the core (the top ranks whose exact pairwise distances
// DistanceOracle::core() tabulates): they scan pending nodes below it
// only. The core nodes a sweep reaches are its *entries*, labelled but not
// scanned; an entry's label is final when the sweep stops, because every
// node that can reach it from below has been scanned. A lookup then
// finishes through the table instead of re-sweeping the top.
//
// Pairwise: Distance(s, t) sweeps up from s (one upward CSR serves both
// directions on an undirected network), then sweeps up from t, probing
// the forward labels at every scanned node for the minimum meet sum; a
// backward node whose label already reaches that minimum is not relaxed,
// since nothing above it can beat it. The join then takes the minimum of
// f[a] + D[a][b] + l[b] over the entries a of s and b of t.
//
// One-to-many (the search layer's workhorse): BeginQuery(sources) sweeps
// up from each query location, scatters the scanned labels into per-node
// buckets, and folds its entries into a core row S_i[b] = min_a f_i[a] +
// D[a][b], skipping each entry another entry already reaches through the
// table no later than its own label (it cannot lower any S_i[b]);
// DistancesTo(v) then sweeps up from v, probes the buckets at
// every scanned node, and takes min_b S_i[b] + l[b] over v's entries,
// yielding all m exact distances sd(o_i, v) at once. Rows are memoized per
// vertex for the duration of the query (hub vertices shared by many
// trajectories are resolved once), with O(1) cross-query reset via
// version tags.
//
// Stall-on-demand: a node is not relaxed when some higher neighbor's
// current label plus the arc back down is shorter than its own — such a
// node cannot lie on the upward half of a shortest up-down path.
//
// Exactness: every label, table entry and candidate is a double sum of
// float arc weights along a real path (computed without rounding at
// realistic scales; see oracle/ch_oracle.h), so its value does not depend
// on the order of its additions, and the returned distance is a min over
// such sums. The optimal path's up-down form either meets below the core,
// where the probe finds it (its nodes are never stalled, since no
// strictly shorter path reaches them), or it enters the core at a first
// node a on the source side and b on the target side, whose labels are
// exact and with D[a][b] no longer than the part between them. So the
// minimum is bitwise what a plain Dijkstra on the road network settles.

#ifndef UOTS_ORACLE_QUERIER_H_
#define UOTS_ORACLE_QUERIER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "net/dijkstra.h"
#include "oracle/ch_oracle.h"
#include "util/versioned.h"

namespace uots {

/// \brief Per-thread query scratch over one (const, shared) oracle.
class OracleQuerier {
 public:
  explicit OracleQuerier(const DistanceOracle& oracle);

  /// Exact network distance sd(s, t); kInfDistance if disconnected.
  double Distance(VertexId s, VertexId t);

  /// Prepares the one-to-many state for a new query's source set.
  void BeginQuery(std::span<const VertexId> sources);

  /// All m exact distances sd(source_i, v), memoized per vertex until the
  /// next BeginQuery. The span is valid until the next DistancesTo call.
  std::span<const double> DistancesTo(VertexId v);

  /// All m exact set distances min_{v in set} sd(source_i, v) — the
  /// spatial kernel of candidate scoring (min over a trajectory's sample
  /// vertices) — via ONE multi-source upward sweep: every set vertex is
  /// seeded at distance zero, labels merge to min_{v} d_up(v, u), and the
  /// bucket probe at each scanned node and the core rows at each entry
  /// fold the per-source minima. One sweep replaces |set| separate rows;
  /// the span is valid until the next MinDistancesTo call. Exact by the
  /// same argument as Distance(): every label sum names a real path, and
  /// the optimal (sample, meet) pair is found with its exact double sum
  /// because the multi-source label at the optimal meet or core entry
  /// never exceeds the optimal single-source label there (and stalling
  /// only prunes dominated paths).
  std::span<const double> MinDistancesTo(std::span<const VertexId> set);

  /// Drains the lookup counter (distinct rows computed + pairwise calls).
  int64_t TakeLookups() {
    const int64_t n = lookups_;
    lookups_ = 0;
    return n;
  }

  /// Nodes scanned by upward sweeps since construction (kernel-cost
  /// telemetry: scans per lookup is the hierarchy-quality figure).
  int64_t SettledVertices() const { return settled_; }

  /// Source entries BeginQuery left out of its core rows since
  /// construction, because another entry dominates them through the table.
  int64_t DominatedEntries() const { return dominated_entries_; }

 private:
  /// Labels of one upward sweep, indexed by rank node; kInfDistance marks
  /// an unreached node. `entries` lists the core nodes the sweep reached,
  /// ascending. Reset() restores only the nodes the last sweep reached.
  struct Labels {
    std::vector<double> dist;
    std::vector<uint32_t> touched;
    std::vector<uint32_t> entries;

    void Reset() {
      for (const uint32_t u : touched) dist[u] = kInfDistance;
      touched.clear();
    }
  };

  /// Labels rank node r with `d` and marks it pending (first reach only).
  void Reach(Labels* lab, uint32_t r, double d) {
    lab->dist[r] = d;
    lab->touched.push_back(r);
    const size_t w = r >> 6;
    pending_[w] |= uint64_t{1} << (r & 63);
    pending_lo_ = std::min(pending_lo_, w);
    pending_hi_ = std::max(pending_hi_, w);
  }

  /// True when rank node u's label `d` is dominated through a higher
  /// neighbor already labeled by the same sweep — such nodes cannot
  /// improve any shortest up-down path, so their out-arcs are not relaxed.
  bool Stalled(uint32_t u, double d, const Labels& lab) const {
    for (const OracleEdge& e : oracle_->UpNeighbors(u)) {
      if (lab.dist[e.to] + e.weight < d) return true;
    }
    return false;
  }

  /// Scans the pending nodes of `lab` (seeded via Reach) below the core in
  /// increasing rank order. Each label is final when its node is scanned,
  /// since every arc points at a larger id. visit(u, label) runs for every
  /// scanned node, stalled ones included (their labels are valid upper
  /// bounds); it returns false to leave u's arcs unrelaxed. The pending
  /// core nodes, reached only once every node below the core is scanned,
  /// are not scanned: they become lab->entries, ascending.
  template <typename Visitor>
  void Sweep(Labels* lab, Visitor&& visit) {
    const uint32_t core_first = core_->first;
    lab->entries.clear();
    for (size_t w = pending_lo_; w <= pending_hi_; ++w) {
      // Relaxations only set bits above u: in later words, or higher in
      // this one, which the reload below picks up in order.
      while (pending_[w] != 0) {
        const uint64_t bits = pending_[w];
        pending_[w] = bits & (bits - 1);
        const auto u =
            static_cast<uint32_t>((w << 6) | std::countr_zero(bits));
        if (u >= core_first) {
          lab->entries.push_back(u);
          continue;
        }
        ++settled_;
        const double d = lab->dist[u];
        if (!visit(u, d) || Stalled(u, d, *lab)) continue;
        for (const OracleEdge& e : oracle_->UpNeighbors(u)) {
          const double nd = d + e.weight;
          double& old = lab->dist[e.to];
          if (nd < old) {
            if (old == kInfDistance) {
              Reach(lab, e.to, nd);
            } else {
              old = nd;
            }
          }
        }
      }
    }
    pending_lo_ = kNoPending;
    pending_hi_ = 0;
  }

  /// Single-source sweep from vertex v (original id) up to the core.
  template <typename Visitor>
  void SweepFrom(VertexId v, Labels* lab, Visitor&& visit) {
    lab->Reset();
    Reach(lab, oracle_->RankOf(v), 0.0);
    Sweep(lab, visit);
  }

  /// Folds the core rows through `lab`'s entries into the m-source row
  /// `out`: out[i] = min(out[i], min_b S_i[b] + l[b]).
  void JoinSourceRows(const Labels& lab, double* out) const;

  const DistanceOracle* oracle_;
  const OracleCore* core_;

  // Sweep scratch: the pending bitset over rank ids (empty between
  // sweeps) with the word range it may occupy, and two label arrays —
  // Distance() keeps the forward labels while it sweeps the backward side.
  static constexpr size_t kNoPending = SIZE_MAX;
  std::vector<uint64_t> pending_;
  size_t pending_lo_ = kNoPending;
  size_t pending_hi_ = 0;
  Labels fwd_;
  Labels up_;
  std::vector<uint32_t> join_col_;  ///< Distance() join: target entries'
  std::vector<double> join_label_;  ///< core columns and their labels

  // One-to-many scratch. Buckets are a pooled linked list headed by a
  // version-tagged per-node slot, so BeginQuery resets them in O(1).
  struct BucketEntry {
    uint32_t source;
    double dist;
    int32_t next;
  };
  VersionedArray<int32_t> bucket_head_;
  std::vector<BucketEntry> bucket_pool_;
  size_t num_sources_ = 0;
  std::vector<double> source_core_;  ///< m core rows S_i, C doubles each
  std::vector<uint32_t> fold_order_;  ///< a source's entries by (label, rank)
  std::vector<uint32_t> kept_;        ///< the entries folded into S_i
  VersionedArray<int64_t> row_of_;  ///< vertex -> base index into row_pool_
  std::vector<double> row_pool_;    ///< memoized rows, m doubles each
  std::vector<double> min_row_;     ///< MinDistancesTo result, m doubles

  int64_t lookups_ = 0;
  int64_t settled_ = 0;
  int64_t dominated_entries_ = 0;
};

}  // namespace uots

#endif  // UOTS_ORACLE_QUERIER_H_
