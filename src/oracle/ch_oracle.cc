#include "oracle/ch_oracle.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "net/dijkstra.h"
#include "util/dary_heap.h"
#include "util/timer.h"

namespace uots {

namespace {

/// One live arc of the mutable overlay graph used during contraction.
struct OverlayArc {
  VertexId to;
  VertexId via;  ///< kInvalidVertex for original road segments
  double weight;
};

/// One target of a witness search from u during the contraction of v: a
/// later neighbor w of v and the length w(u,v) + w(v,w) of the path via v.
struct WitnessTarget {
  VertexId w;
  double through_v;
  bool decided;  ///< its shortcut decision can no longer change
};

/// Marks a vertex as target `slot` of witness search number `search`.
struct TargetTag {
  uint32_t search;
  uint32_t slot;
};

/// \brief The contraction state machine. Owns the overlay adjacency, the
/// lazy priority queue, and the witness-search scratch.
class Contractor {
 public:
  Contractor(const RoadNetwork& g, const OracleBuildOptions& opts,
             OracleBuildStats* stats)
      : g_(g),
        opts_(opts),
        stats_(stats),
        n_(g.NumVertices()),
        overlay_(n_),
        contracted_(n_, 0),
        deleted_neighbors_(n_, 0),
        ranks_(n_, 0),
        up_lists_(n_),
        witness_dist_(n_),
        witness_heap_(n_),
        target_tags_(n_),
        queue_(n_) {
    for (VertexId v = 0; v < n_; ++v) {
      const auto nbrs = g.Neighbors(v);
      overlay_[v].reserve(nbrs.size());
      for (const AdjacencyEntry& e : nbrs) {
        overlay_[v].push_back(
            OverlayArc{e.to, kInvalidVertex, static_cast<double>(e.weight)});
      }
    }
  }

  void Run() {
    for (VertexId v = 0; v < n_; ++v) queue_.Push(v, Priority(v));
    uint32_t next_rank = 0;
    while (!queue_.empty()) {
      const VertexId v = queue_.Top().id;
      queue_.Pop();
      // Lazy update: the stored key may predate neighbor contractions.
      // Recompute; if the fresh priority no longer wins, requeue and try
      // the new top instead of contracting a stale minimum.
      const double p = Priority(v);
      if (!queue_.empty() && p > queue_.Top().key) {
        queue_.Push(v, p);
        continue;
      }
      Contract(v);
      ranks_[v] = next_rank++;
    }
  }

  std::vector<uint32_t> TakeRanks() { return std::move(ranks_); }
  std::vector<std::vector<OracleEdge>> TakeUpLists() {
    return std::move(up_lists_);
  }

 private:
  /// Fills nbrs_ with the live (uncontracted) neighbors of v and their
  /// current best arcs.
  void LiveNeighbors(VertexId v) {
    nbrs_.clear();
    for (const OverlayArc& a : overlay_[v]) {
      if (!contracted_[a.to]) nbrs_.push_back(a);
    }
  }

  /// Inserts (or min-merges) the undirected overlay arc u <-> w.
  void AddOverlayArc(VertexId u, VertexId w, double weight, VertexId via) {
    const auto merge = [&](VertexId from, VertexId to) {
      for (OverlayArc& a : overlay_[from]) {
        if (a.to == to) {
          if (weight < a.weight) {
            a.weight = weight;
            a.via = via;
          }
          return;
        }
      }
      overlay_[from].push_back(OverlayArc{to, via, weight});
    };
    merge(u, w);
    merge(w, u);
  }

  /// Counts (and, when `commit`, materializes) the shortcuts required to
  /// contract v: one per neighbor pair (u, w) with no witness path of
  /// length <= w(u,v) + w(v,w) avoiding v in the remaining overlay.
  size_t SimulateContraction(VertexId v, bool commit) {
    LiveNeighbors(v);
    size_t shortcuts = 0;
    for (size_t ui = 0; ui + 1 < nbrs_.size(); ++ui) {
      const VertexId u = nbrs_[ui].to;
      const double w_uv = nbrs_[ui].weight;
      targets_.clear();
      for (size_t wi = ui + 1; wi < nbrs_.size(); ++wi) {
        targets_.push_back(
            WitnessTarget{nbrs_[wi].to, w_uv + nbrs_[wi].weight, false});
      }
      WitnessSearch(u, v);
      for (const WitnessTarget& t : targets_) {
        // Any label (settled or tentative) names a real path, so a label
        // <= through_v is a witness even if the search stopped early.
        if (witness_dist_.Get(t.w) <= t.through_v) continue;
        ++shortcuts;
        if (commit) AddOverlayArc(u, t.w, t.through_v, v);
      }
    }
    return shortcuts;
  }

  /// Bounded Dijkstra from `source` over the live overlay, never entering
  /// `excluded` (the vertex being contracted). Labels land in witness_dist_.
  /// It stops once every target in targets_ is decided, when the popped key
  /// passes the largest through_v still undecided, or after the settle cap.
  /// A target is decided once popped (its label is final) or once labelled
  /// <= through_v (a witness whatever follows). Labels only fall and every
  /// later label is >= the popped key, so each target's `label <= through_v`
  /// outcome is the one a search run on to the cap would reach: contraction
  /// order and shortcuts do not depend on where the search stops.
  void WitnessSearch(VertexId source, VertexId excluded) {
    if (stats_ != nullptr) ++stats_->witness_searches;
    ++search_;
    double radius = 0.0;
    for (uint32_t i = 0; i < targets_.size(); ++i) {
      target_tags_[targets_[i].w] = TargetTag{search_, i};
      radius = std::max(radius, targets_[i].through_v);
    }
    size_t undecided = targets_.size();
    // Marks x decided if it is an undecided target whose label `d` fixes
    // its outcome; shrinks the radius when x held it. True once no target
    // is left undecided.
    const auto decide = [&](VertexId x, double d, bool popped) {
      const TargetTag tag = target_tags_[x];
      if (tag.search != search_) return false;
      WitnessTarget& t = targets_[tag.slot];
      if (t.decided || (!popped && d > t.through_v)) return false;
      t.decided = true;
      if (--undecided == 0) return true;
      if (t.through_v == radius) {
        radius = 0.0;
        for (const WitnessTarget& o : targets_) {
          if (!o.decided) radius = std::max(radius, o.through_v);
        }
      }
      return false;
    };
    witness_dist_.Reset();
    witness_heap_.Reset();
    witness_dist_.Set(source, 0.0);
    witness_heap_.Push(source, 0.0);
    int settled = 0;
    while (!witness_heap_.empty()) {
      const auto [d, x] = witness_heap_.Pop();
      if (d > radius) break;
      if (++settled > opts_.witness_settle_limit) break;
      if (stats_ != nullptr) ++stats_->witness_settled;
      if (decide(x, d, /*popped=*/true)) return;
      for (const OverlayArc& a : overlay_[x]) {
        if (contracted_[a.to] || a.to == excluded) continue;
        const double nd = d + a.weight;
        const double old = witness_dist_.Get(a.to);
        if (nd < old) {
          witness_dist_.Set(a.to, nd);
          if (old == kInfDistance) {
            witness_heap_.Push(a.to, nd);
          } else {
            witness_heap_.DecreaseKey(a.to, nd);
          }
          if (decide(a.to, nd, /*popped=*/false)) return;
        }
      }
    }
  }

  /// Edge difference plus a deleted-neighbors term: prefer vertices whose
  /// contraction adds few shortcuts and whose neighborhood is still mostly
  /// intact (spreads contraction evenly instead of chewing through one
  /// region first).
  double Priority(VertexId v) {
    const size_t shortcuts = SimulateContraction(v, /*commit=*/false);
    return 2.0 * (static_cast<double>(shortcuts) -
                  static_cast<double>(nbrs_.size())) +
           static_cast<double>(deleted_neighbors_[v]);
  }

  void Contract(VertexId v) {
    const size_t added = SimulateContraction(v, /*commit=*/true);
    if (stats_ != nullptr) stats_->shortcuts += added;
    // v's live arcs become its upward arcs: every remaining neighbor is
    // contracted later, hence ranked higher.
    std::vector<OracleEdge>& up = up_lists_[v];
    for (const OverlayArc& a : overlay_[v]) {
      if (contracted_[a.to]) continue;
      up.push_back(OracleEdge{a.to, a.via, a.weight});
      ++deleted_neighbors_[a.to];
    }
    // Targets are still original ids here; Build() renumbers them to rank
    // space and sorts each slice once the full order is known.
    contracted_[v] = 1;
    // Drop the now-dead arcs back to v so later witness searches and
    // priority updates stop skipping them. erase_if keeps the other arcs
    // in order, so searches relax the same arcs in the same order and the
    // hierarchy is unchanged; the contracted_ guards stay for parallel arcs.
    for (const OracleEdge& e : up) {
      std::erase_if(overlay_[e.to],
                    [v](const OverlayArc& a) { return a.to == v; });
    }
    overlay_[v].clear();
    overlay_[v].shrink_to_fit();
  }

  const RoadNetwork& g_;
  const OracleBuildOptions opts_;
  OracleBuildStats* stats_;
  const size_t n_;
  std::vector<std::vector<OverlayArc>> overlay_;
  std::vector<uint8_t> contracted_;
  std::vector<uint32_t> deleted_neighbors_;
  std::vector<uint32_t> ranks_;
  std::vector<std::vector<OracleEdge>> up_lists_;
  DistanceField witness_dist_;
  VertexHeap witness_heap_;
  /// SimulateContraction scratch: v's live neighbors, and the targets of
  /// the current witness search (the neighbors after its source).
  std::vector<OverlayArc> nbrs_;
  std::vector<WitnessTarget> targets_;
  /// Per vertex: its slot in targets_, valid while `search` is search_.
  std::vector<TargetTag> target_tags_;
  uint32_t search_ = 0;
  DaryHeap<4> queue_;
};

/// Fills the core table of `oracle` (see ch_oracle.h). Row a starts at 0
/// on core node a. The up pass visits the core in increasing rank, so a
/// node's upward distance is final before its arcs are relaxed; the down
/// pass visits it in decreasing rank, so every arc's head already holds
/// its up-down distance from a when its tail takes the minimum over its
/// arcs. Both passes run over the core arcs renumbered to core indices.
OracleCore BuildCore(const DistanceOracle& oracle) {
  WallTimer timer;
  OracleCore core;
  const auto n = static_cast<uint32_t>(oracle.NumVertices());
  const uint32_t c = std::min(n, DistanceOracle::kCoreSize);
  core.first = n - c;
  core.size = c;
  std::vector<uint32_t> offsets(c + 1, 0);
  std::vector<uint32_t> heads;
  std::vector<double> weights;
  for (uint32_t a = 0; a < c; ++a) {
    for (const OracleEdge& e : oracle.UpNeighbors(core.first + a)) {
      heads.push_back(e.to - core.first);
      weights.push_back(e.weight);
    }
    offsets[a + 1] = static_cast<uint32_t>(heads.size());
  }
  core.dist.assign(static_cast<size_t>(c) * c, kInfDistance);
  for (uint32_t a = 0; a < c; ++a) {
    double* row = core.dist.data() + static_cast<size_t>(a) * c;
    row[a] = 0.0;
    for (uint32_t x = a; x < c; ++x) {
      const double d = row[x];
      if (d == kInfDistance) continue;  // not above a
      for (uint32_t i = offsets[x]; i < offsets[x + 1]; ++i) {
        row[heads[i]] = std::min(row[heads[i]], d + weights[i]);
      }
    }
    for (uint32_t x = c; x-- > 0;) {
      double d = row[x];
      for (uint32_t i = offsets[x]; i < offsets[x + 1]; ++i) {
        d = std::min(d, row[heads[i]] + weights[i]);
      }
      row[x] = d;
    }
  }
  core.build_ms = timer.ElapsedMillis();
  return core;
}

}  // namespace

Result<DistanceOracle> DistanceOracle::Build(const RoadNetwork& g,
                                             const OracleBuildOptions& opts,
                                             OracleBuildStats* stats) {
  if (opts.witness_settle_limit <= 0) {
    return Status::InvalidArgument(
        "oracle witness_settle_limit must be positive");
  }
  WallTimer timer;
  Contractor contractor(g, opts, stats);
  contractor.Run();

  const size_t n = g.NumVertices();
  std::vector<uint32_t> ranks = contractor.TakeRanks();
  std::vector<std::vector<OracleEdge>> up_lists = contractor.TakeUpLists();

  // Assemble the CSR in rank space: slice r holds the upward arcs of the
  // vertex contracted r-th, with targets renumbered to rank ids (see the
  // header — this keeps the hierarchy's hot top contiguous in memory).
  std::vector<uint64_t> offsets(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    offsets[ranks[v] + 1] = up_lists[v].size();
  }
  for (size_t r = 0; r < n; ++r) offsets[r + 1] += offsets[r];
  std::vector<OracleEdge> edges(static_cast<size_t>(offsets[n]));
  for (size_t v = 0; v < n; ++v) {
    size_t at = static_cast<size_t>(offsets[ranks[v]]);
    for (const OracleEdge& e : up_lists[v]) {
      edges[at++] = OracleEdge{ranks[e.to], e.via, e.weight};
    }
    std::sort(edges.begin() + static_cast<ptrdiff_t>(offsets[ranks[v]]),
              edges.begin() + static_cast<ptrdiff_t>(at),
              [](const OracleEdge& a, const OracleEdge& b) {
                return a.to < b.to;
              });
  }

  DistanceOracle oracle;
  oracle.ranks_ = std::move(ranks);
  oracle.up_offsets_ = std::move(offsets);
  oracle.up_edges_ = std::move(edges);
  if (stats != nullptr) stats->seconds = timer.ElapsedMillis() / 1e3;
  UOTS_RETURN_NOT_OK(oracle.Validate());
  return oracle;
}

DistanceOracle DistanceOracle::FromColumns(ColumnVec<uint32_t> ranks,
                                           ColumnVec<uint64_t> up_offsets,
                                           ColumnVec<OracleEdge> up_edges) {
  DistanceOracle oracle;
  oracle.ranks_ = std::move(ranks);
  oracle.up_offsets_ = std::move(up_offsets);
  oracle.up_edges_ = std::move(up_edges);
  return oracle;
}

size_t DistanceOracle::NumShortcuts() const {
  size_t n = 0;
  for (const OracleEdge& e : up_edges_.span()) {
    if (e.via != kInvalidVertex) ++n;
  }
  return n;
}

Status DistanceOracle::Validate() const {
  const size_t n = ranks_.size();
  if (up_offsets_.size() != n + 1) {
    return Status::InvalidArgument("oracle offsets do not match vertex count");
  }
  if (up_offsets_.front() != 0 || up_offsets_.back() != up_edges_.size()) {
    return Status::InvalidArgument("oracle offsets do not span the arc array");
  }
  std::vector<uint8_t> seen(n, 0);
  for (size_t v = 0; v < n; ++v) {
    if (ranks_[v] >= n || seen[ranks_[v]] != 0) {
      return Status::InvalidArgument("oracle ranks are not a permutation");
    }
    seen[ranks_[v]] = 1;
  }
  for (size_t v = 0; v < n; ++v) {
    if (up_offsets_[v + 1] < up_offsets_[v]) {
      return Status::InvalidArgument("oracle offsets decrease");
    }
    for (uint64_t i = up_offsets_[v]; i < up_offsets_[v + 1]; ++i) {
      const OracleEdge& e = up_edges_[i];
      // Rank-space CSR: "upward" is simply a larger node id.
      if (e.to >= n || e.to <= v) {
        return Status::InvalidArgument("oracle arc is not upward");
      }
      if (e.via != kInvalidVertex && e.via >= n) {
        return Status::InvalidArgument("oracle shortcut via out of range");
      }
      if (!std::isfinite(e.weight) || e.weight <= 0.0) {
        return Status::InvalidArgument("oracle arc weight not positive/finite");
      }
      if (i > up_offsets_[v] && up_edges_[i - 1].to >= e.to) {
        return Status::InvalidArgument("oracle arc slice not ascending");
      }
    }
  }
  return Status::OK();
}

const OracleCore& DistanceOracle::core() const {
  std::call_once(core_->once, [this] {
    core_->table = BuildCore(*this);
    core_->built.store(true, std::memory_order_release);
  });
  return core_->table;
}

MemoryBreakdown DistanceOracle::Memory() const {
  MemoryBreakdown m;
  m += ranks_.Memory();
  m += up_offsets_.Memory();
  m += up_edges_.Memory();
  if (core_->built.load(std::memory_order_acquire)) {
    m.heap_bytes += core_->table.dist.capacity() * sizeof(double);
  }
  return m;
}

}  // namespace uots
