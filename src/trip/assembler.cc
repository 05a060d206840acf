#include "trip/assembler.h"

#include <algorithm>
#include <cmath>

namespace uots {

namespace {

/// A partial pick sequence in the k-best DP. `W` accumulates the
/// per-position SimU contribution left-to-right in visit order; the two
/// component sums are carried the same way so the final reported score is
/// computed once, canonically, from them.
struct Partial {
  double W = 0.0;
  double sum_decay = 0.0;
  double sum_text = 0.0;
  std::vector<uint16_t> picks;  ///< candidate index per position so far
};

/// DP ordering: higher W first, ties to the lexicographically smaller pick
/// sequence (candidate lists are sorted by (traj, begin), so index order is
/// id-sequence order).
bool BetterPartial(const Partial& a, const Partial& b) {
  if (a.W != b.W) return a.W > b.W;
  return std::lexicographical_compare(a.picks.begin(), a.picks.end(),
                                      b.picks.begin(), b.picks.end());
}

/// Inserts `p` into the at-most-k list `list` kept sorted by BetterPartial.
void InsertBounded(std::vector<Partial>* list, Partial p, size_t k) {
  auto it = std::lower_bound(
      list->begin(), list->end(), p,
      [](const Partial& a, const Partial& b) { return BetterPartial(a, b); });
  if (static_cast<size_t>(it - list->begin()) >= k) return;
  list->insert(it, std::move(p));
  if (list->size() > k) list->pop_back();
}

}  // namespace

void TripAssembler::FallbackDistances(VertexId source,
                                      std::span<const VertexId> targets,
                                      QueryStats* stats,
                                      std::vector<double>* out) {
  out->assign(targets.size(), kInfDistance);
  // Distinct targets, sorted: per-settle work is one binary probe of this
  // (<= 64-entry) list.
  std::vector<VertexId> distinct(targets.begin(), targets.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  size_t remaining = distinct.size();

  expansion_.Reset(source);
  VertexId v = kInvalidVertex;
  double d = 0.0;
  while (remaining > 0 && expansion_.Step(&v, &d)) {
    if (!std::binary_search(distinct.begin(), distinct.end(), v)) continue;
    --remaining;
    for (size_t j = 0; j < targets.size(); ++j) {
      if (targets[j] == v) (*out)[j] = d;
    }
  }
  stats->settled_vertices += expansion_.settled_count();
  stats->heap_pops += expansion_.heap_pops();
  stats->heap_pushes += expansion_.heap_pushes();
  stats->heap_decreases += expansion_.heap_decreases();
}

void TripAssembler::DistanceMatrix(std::span<const VertexId> sources,
                                   std::span<const VertexId> targets,
                                   OracleQuerier* oracle, QueryStats* stats,
                                   std::vector<std::vector<double>>* dist) {
  dist->assign(sources.size(), {});
  if (oracle != nullptr) {
    oracle->BeginQuery(sources);
    for (auto& row : *dist) row.resize(targets.size());
    for (size_t t = 0; t < targets.size(); ++t) {
      const std::span<const double> col = oracle->DistancesTo(targets[t]);
      for (size_t s = 0; s < sources.size(); ++s) (*dist)[s][t] = col[s];
    }
    return;
  }
  for (size_t s = 0; s < sources.size(); ++s) {
    FallbackDistances(sources[s], targets, stats, &(*dist)[s]);
  }
}

double TripAssembler::PairDistance(VertexId s, VertexId t,
                                   OracleQuerier* oracle, QueryStats* stats) {
  if (oracle != nullptr) return oracle->Distance(s, t);
  const VertexId target[1] = {t};
  std::vector<double> d;
  FallbackDistances(s, target, stats, &d);
  return d[0];
}

std::vector<uint32_t> TripAssembler::VisitOrder(const TripQuery& q,
                                                OracleQuerier* oracle,
                                                QueryStats* stats) {
  const size_t m = q.locations.size();
  std::vector<uint32_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = static_cast<uint32_t>(i);
  if (q.ordered || m <= 2) return order;  // NN from index 0 is identity at m=2

  std::vector<std::vector<double>> d;
  DistanceMatrix(q.locations, q.locations, oracle, stats, &d);
  std::vector<uint8_t> visited(m, 0);
  visited[0] = 1;
  uint32_t cur = 0;
  for (size_t step = 1; step < m; ++step) {
    uint32_t best = static_cast<uint32_t>(-1);
    for (uint32_t j = 0; j < m; ++j) {
      // Strict < with ascending j: ties resolve to the smaller index.
      if (!visited[j] && (best == static_cast<uint32_t>(-1) ||
                          d[cur][j] < d[cur][best])) {
        best = j;
      }
    }
    visited[best] = 1;
    order[step] = best;
    cur = best;
  }
  return order;
}

void TripAssembler::Assemble(const TripQuery& q,
                             std::vector<std::vector<SegmentCandidate>> cands,
                             OracleQuerier* oracle, QueryStats* stats,
                             std::vector<AssembledTrip>* out) {
  const size_t m = q.locations.size();
  for (const auto& c : cands) {
    if (c.empty()) return;  // a location with no reachable trajectory
  }

  const std::vector<uint32_t> order = VisitOrder(q, oracle, stats);

  // Candidate lists in visit order, each canonically sorted by (traj,
  // begin) so DP pick indexes compare as id sequences.
  std::vector<std::vector<SegmentCandidate>*> C(m);
  for (size_t p = 0; p < m; ++p) {
    C[p] = &cands[order[p]];
    std::sort(C[p]->begin(), C[p]->end(),
              [](const SegmentCandidate& a, const SegmentCandidate& b) {
                return a.traj != b.traj ? a.traj < b.traj : a.begin < b.begin;
              });
  }

  const size_t k = static_cast<size_t>(q.k);
  const bool bounded = q.gap_budget_m > 0.0;

  // k-best DP: lists[c] = the k best partial sequences ending in candidate
  // c of the current position.
  std::vector<std::vector<Partial>> lists(C[0]->size());
  for (size_t c = 0; c < C[0]->size(); ++c) {
    const SegmentCandidate& seg = (*C[0])[c];
    Partial p;
    p.W = SimilarityModel::Combine(q.lambda, seg.decay, seg.text);
    p.sum_decay = seg.decay;
    p.sum_text = seg.text;
    p.picks.push_back(static_cast<uint16_t>(c));
    lists[c].push_back(std::move(p));
  }

  std::vector<VertexId> exits, entries;
  for (size_t p = 1; p < m; ++p) {
    std::vector<std::vector<double>> conn;
    if (bounded) {
      exits.clear();
      entries.clear();
      for (const auto& seg : *C[p - 1]) exits.push_back(seg.exit);
      for (const auto& seg : *C[p]) entries.push_back(seg.entry);
      DistanceMatrix(exits, entries, oracle, stats, &conn);
    }
    std::vector<std::vector<Partial>> next(C[p]->size());
    for (size_t c = 0; c < C[p]->size(); ++c) {
      const SegmentCandidate& seg = (*C[p])[c];
      const double w = SimilarityModel::Combine(q.lambda, seg.decay, seg.text);
      for (size_t prev = 0; prev < lists.size(); ++prev) {
        if (bounded && !(conn[prev][c] <= q.gap_budget_m)) continue;
        for (const Partial& base : lists[prev]) {
          Partial ext;
          ext.W = base.W + w;
          ext.sum_decay = base.sum_decay + seg.decay;
          ext.sum_text = base.sum_text + seg.text;
          ext.picks = base.picks;
          ext.picks.push_back(static_cast<uint16_t>(c));
          InsertBounded(&next[c], std::move(ext), k);
        }
      }
    }
    lists = std::move(next);
  }

  // Gather the final pool, rank by the canonical (score, id-sequence)
  // order, and materialize the k winners with their connectors.
  std::vector<Partial> pool;
  for (auto& list : lists) {
    for (auto& p : list) pool.push_back(std::move(p));
  }
  const double dm = static_cast<double>(m);
  std::sort(pool.begin(), pool.end(), [&](const Partial& a, const Partial& b) {
    const double sa = SimilarityModel::Combine(q.lambda, a.sum_decay / dm,
                                               a.sum_text / dm);
    const double sb = SimilarityModel::Combine(q.lambda, b.sum_decay / dm,
                                               b.sum_text / dm);
    if (sa != sb) return sa > sb;
    return std::lexicographical_compare(a.picks.begin(), a.picks.end(),
                                        b.picks.begin(), b.picks.end());
  });

  // The winners share segments, so each distinct (exit, entry) connector
  // is resolved once and reused.
  struct Connector {
    VertexId exit;
    VertexId entry;
    double m;
  };
  std::vector<Connector> connectors;
  const auto connector_m = [&](VertexId exit, VertexId entry) {
    for (const Connector& c : connectors) {
      if (c.exit == exit && c.entry == entry) return c.m;
    }
    const double d = PairDistance(exit, entry, oracle, stats);
    connectors.push_back(Connector{exit, entry, d});
    return d;
  };

  for (const Partial& p : pool) {
    if (out->size() >= k) break;
    AssembledTrip trip;
    trip.spatial_sim = p.sum_decay / dm;
    trip.textual_sim = p.sum_text / dm;
    trip.score = SimilarityModel::Combine(q.lambda, trip.spatial_sim,
                                          trip.textual_sim);
    bool connected = true;
    for (size_t pos = 0; pos < m; ++pos) {
      const SegmentCandidate& seg = (*C[pos])[p.picks[pos]];
      TripSegment s;
      s.traj = seg.traj;
      s.begin = seg.begin;
      s.end = seg.end;
      s.entry = seg.entry;
      s.exit = seg.exit;
      s.loc_distance = seg.distance;
      if (pos > 0) {
        const SegmentCandidate& prev = (*C[pos - 1])[p.picks[pos - 1]];
        s.connector_m = connector_m(prev.exit, seg.entry);
        if (!std::isfinite(s.connector_m)) {
          connected = false;
          break;
        }
        trip.connector_total_m += s.connector_m;
      }
      trip.segments.push_back(s);
    }
    if (connected) out->push_back(std::move(trip));
  }
}

}  // namespace uots
