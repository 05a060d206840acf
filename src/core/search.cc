#include "core/search.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>

#include "core/topk.h"
#include "net/dijkstra.h"
#include "util/timer.h"

namespace uots {

/// Result-collection policy: either a top-k heap (prune threshold = the
/// k-th best exact score so far) or a theta filter (fixed prune threshold).
class UotsSearcher::Sink {
 public:
  /// Top-k mode.
  explicit Sink(size_t k) : topk_(k) {}
  /// Threshold mode.
  explicit Sink(double theta)
      : topk_(0), theta_(theta), threshold_mode_(true) {}

  void Accept(const ScoredTrajectory& item) {
    if (threshold_mode_) {
      if (item.score >= theta_) all_.push_back(item);
    } else {
      topk_.Offer(item);
    }
  }

  /// Score everything unresolved must beat for the search to continue.
  double PruneThreshold() const {
    return threshold_mode_ ? theta_ : topk_.Threshold();
  }

  std::vector<ScoredTrajectory> Finish() && {
    if (!threshold_mode_) return std::move(topk_).Finish();
    std::sort(all_.begin(), all_.end(),
              [](const ScoredTrajectory& a, const ScoredTrajectory& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
    return std::move(all_);
  }

 private:
  TopK<> topk_;
  std::vector<ScoredTrajectory> all_;
  double theta_ = 0.0;
  bool threshold_mode_ = false;
};

UotsSearcher::UotsSearcher(const TrajectoryDatabase& db,
                           const UotsSearchOptions& opts)
    : db_(&db), opts_(opts) {
  state_slot_.Resize(db.store().size());
  text_of_.Resize(db.store().size());
  if (opts_.use_oracle && db.oracle() != nullptr) {
    oracle_ = std::make_unique<OracleQuerier>(*db.oracle());
  }
}

void UotsSearcher::ResolveTextualDomain(const UotsQuery& query,
                                        QueryStats* stats) {
  ScopedPhase phase(stats, QueryPhase::kTextualFilter);
  // Scratch spans the merged id space; a freshly published delta (or a
  // post-compaction rebind) grows it here, before any text_of_.Set.
  if (state_slot_.size() != view_.NumTrajectories()) {
    state_slot_.Resize(view_.NumTrajectories());
    text_of_.Resize(view_.NumTrajectories());
  }
  view_.ScoreTextual(query.keywords, db_->model().textual(), &text_docs_,
                     &stats->posting_entries, &text_scratch_);
  std::sort(text_docs_.begin(), text_docs_.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  text_of_.Reset();
  for (const ScoredDoc& d : text_docs_) text_of_.Set(d.doc, d.score);
}

Result<SearchResult> UotsSearcher::SearchTextOnly(const UotsQuery& query) {
  // lambda == 0: the spatial domain cannot contribute; the textual domain
  // is already exact after the index probe, so the answer is direct.
  SearchResult out;
  {
    ScopedPhase phase(&out.stats, QueryPhase::kRefinement);
    TopK topk(static_cast<size_t>(query.k));
    for (const ScoredDoc& d : text_docs_) {
      topk.Offer(
          ScoredTrajectory{static_cast<TrajId>(d.doc), d.score, 0.0, d.score});
      ++out.stats.visited_trajectories;
    }
    // Fill with SimT = 0 trajectories if k exceeds the candidate count.
    if (topk.size() < static_cast<size_t>(query.k)) {
      for (TrajId id = 0; id < view_.NumTrajectories() &&
                          topk.size() < static_cast<size_t>(query.k);
           ++id) {
        if (text_of_.Has(id)) continue;  // already offered
        topk.Offer(ScoredTrajectory{id, 0.0, 0.0, 0.0});
      }
    }
    out.items = std::move(topk).Finish();
    out.stats.candidates = static_cast<int64_t>(out.items.size());
  }
  return out;
}

Result<SearchResult> UotsSearcher::SearchTextOnlyThreshold(
    const UotsQuery& query, double theta) {
  SearchResult out;
  {
    ScopedPhase phase(&out.stats, QueryPhase::kRefinement);
    for (const ScoredDoc& d : text_docs_) {
      if (d.score < theta) break;  // descending order
      out.items.push_back(
          ScoredTrajectory{static_cast<TrajId>(d.doc), d.score, 0.0, d.score});
      ++out.stats.visited_trajectories;
    }
    // theta <= 0 is matched by every trajectory, including keyword-less
    // ones.
    if (theta <= 0.0) {
      for (TrajId id = 0; id < view_.NumTrajectories(); ++id) {
        if (text_of_.Has(id)) continue;
        out.items.push_back(ScoredTrajectory{id, 0.0, 0.0, 0.0});
      }
      std::sort(out.items.begin(), out.items.end(),
                [](const ScoredTrajectory& a, const ScoredTrajectory& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.id < b.id;
                });
    }
    out.stats.candidates = static_cast<int64_t>(out.items.size());
  }
  return out;
}

Status UotsSearcher::RunSearch(const UotsQuery& query, Sink* sink,
                               QueryStats* stats) {
  const auto& model = db_->model();
  const size_t m = query.locations.size();
  const double lambda = query.lambda;

  // ---- Spatial domain: one expansion per query location. ----
  while (expansions_.size() < m) {
    expansions_.push_back(std::make_unique<ExpansionCursor>(db_->network()));
  }
  std::vector<double> cur_decay(m);  // e^(-radius_i/sigma); 0 once exhausted
  for (size_t i = 0; i < m; ++i) {
    expansions_[i]->Begin(query.locations[i], opts_.distance_cache.get());
    cur_decay[i] = 1.0;
  }
  size_t exhausted_count = 0;

  // With a distance oracle the expansion loop runs the same way — exact
  // per-source scans, partial states, incremental bounds, in rounds of
  // exactly batch_size settles — until the radius-driven spatial bound
  // alone is beaten. What remains then is the baseline's expensive tail:
  // candidates (typically high-SimT ones) whose upper bound cannot drop
  // below the threshold until EVERY expansion has reached them. The oracle
  // finisher resolves exactly those candidates directly (see the
  // termination check below) and stops, skipping the tail expansion
  // entirely.
  const bool use_oracle = oracle_ != nullptr;
  if (use_oracle) oracle_->BeginQuery(query.locations);

  state_slot_.Reset();
  states_.clear();
  partial_.clear();
  decay_pool_.clear();

  size_t text_ptr = 0;  // head of the not-fully-scanned textual remainder
  std::vector<double> labels(m, 0.0);
  size_t cur = 0;  // current query source
  const uint64_t full_mask =
      (m == 64) ? ~uint64_t{0} : ((uint64_t{1} << m) - 1);

  // ---- Incremental bound maintenance. ----
  //
  // The per-round termination/scheduling sweep used to rescan the whole
  // partly-scanned set (O(|partial| * m) per round). Instead, each state
  // caches its SimU upper bound (TrajState::cached_ub) from the moment it
  // was last touched, and three aggregates are maintained as deltas:
  //
  //  * labels[i]      — sum of cached_ub over states source i has not
  //                     scanned yet (the scheduling heuristic's input);
  //  * cached_max     — max cached_ub since the last full rebuild;
  //  * partial_count  — number of unresolved states inside partial_.
  //
  // Soundness: radii only grow, so cur_decay[] only shrinks, and a newly
  // scanned exact decay e^(-d/sigma) never exceeds the cur_decay it
  // replaces in the bound. Every state's true bound is therefore
  // non-increasing over time and never exceeds its cached_ub, so
  // max(base_ub, cached_max) always over-approximates the true global
  // bound: terminating against it can never terminate too early (results
  // stay exact), only too late. To avoid "too late", the sweep is rebuilt
  // from scratch — recomputing every cached_ub with current decays and
  // compacting partial_ — exactly when the cached partial max is the only
  // thing blocking termination AND the inputs moved since the last rebuild.
  double total_rs = static_cast<double>(m);  // sum of cur_decay
  size_t partial_count = 0;
  double cached_max = -std::numeric_limits<double>::infinity();
  double total_rs_at_rebuild = total_rs;
  bool touched_since_rebuild = false;

  // SimU upper bound of a partly scanned state under current decays.
  const auto state_ub = [&](const TrajState& s) {
    // sum over unscanned sources of e^(-radius_i/sigma)
    double missing = total_rs;
    uint64_t mask = s.mask;
    while (mask != 0) {
      const int i = __builtin_ctzll(mask);
      missing -= cur_decay[i];
      mask &= mask - 1;
    }
    return SimilarityModel::Combine(
        lambda, (s.sum_decay + missing) / static_cast<double>(m), s.text);
  };

  // Recomputes labels / cached_max from scratch and compacts partial_.
  const auto rebuild_bounds = [&] {
    std::fill(labels.begin(), labels.end(), 0.0);
    cached_max = -std::numeric_limits<double>::infinity();
    size_t w = 0;
    for (size_t r = 0; r < partial_.size(); ++r) {
      TrajState& s = states_[partial_[r]];
      if (s.known == static_cast<int>(m)) continue;  // resolved; drop
      partial_[w++] = partial_[r];
      const double ub = state_ub(s);
      s.cached_ub = ub;
      if (ub > cached_max) cached_max = ub;
      uint64_t unset = ~s.mask & full_mask;
      while (unset != 0) {
        const int i = __builtin_ctzll(unset);
        labels[i] += ub;
        unset &= unset - 1;
      }
    }
    partial_.resize(w);
    partial_count = w;
    total_rs_at_rebuild = total_rs;
    touched_since_rebuild = false;
    ++stats->bound_rebuilds;
  };

  // Oracle resolution: exactly scores one trajectory with a single
  // multi-source oracle search over its whole sample-vertex set, yielding
  // min over samples of sd(o_i, sample) for every source at once —
  // bit-equal to the label the expansion would eventually settle (see
  // oracle/ch_oracle.h). Sources that already scanned tau keep their
  // expansion decays, and the final sum runs in source order either way,
  // so the score is bitwise the score a full scan would have produced.
  std::vector<VertexId> sample_verts;
  const auto oracle_resolve = [&](TrajId t) {
    int32_t idx = state_slot_.Get(t, -1);
    if (idx < 0) {
      idx = static_cast<int32_t>(states_.size());
      state_slot_.Set(t, idx);
      states_.push_back(TrajState{t, 0, 0, 0.0, text_of_.Get(t, 0.0), 0.0,
                                  decay_pool_.size()});
      decay_pool_.resize(decay_pool_.size() + m, 0.0);
      ++stats->visited_trajectories;
      // Never enters partial_: it is resolved right here.
    }
    TrajState& s = states_[idx];
    if (s.known == static_cast<int>(m)) return;  // already exact
    sample_verts.clear();
    for (const Sample& smp : view_.SamplesOf(t)) {
      sample_verts.push_back(smp.vertex);
    }
    const std::span<const double> row = oracle_->MinDistancesTo(sample_verts);
    stats->trajectory_hits += static_cast<int64_t>(m) - s.known;
    const uint64_t unset = ~s.mask & full_mask;
    s.mask = full_mask;
    s.known = static_cast<int>(m);
    touched_since_rebuild = true;  // its partial_ entry is now droppable
    double* decays = decay_pool_.data() + s.decay_base;
    for (uint64_t rest = unset; rest != 0; rest &= rest - 1) {
      const int i = __builtin_ctzll(rest);
      if (row[i] == kInfDistance) {
        // Unreachable from source i: expansion i could never scan tau, so
        // the baseline never completes or scores it. Resolved-unscored.
        return;
      }
      decays[i] = model.SpatialDecay(row[i]);
    }
    double sum = 0.0;
    for (size_t j = 0; j < m; ++j) sum += decays[j];
    s.sum_decay = sum;
    const double spatial = sum / static_cast<double>(m);
    const double score = SimilarityModel::Combine(lambda, spatial, s.text);
    sink->Accept(ScoredTrajectory{t, score, spatial, s.text});
    ++stats->candidates;
  };

  // Processes one settled (source, vertex, distance) event. The scan body
  // runs per trajectory; the outer wrapper walks the vertex's base posting
  // segment then its delta segment — ascending global ids, exactly the
  // posting list a rebuilt monolithic index would hold.
  const auto process_hit = [&](size_t i, VertexId v, double d) {
    const double decay = model.SpatialDecay(d);
    const uint64_t bit = uint64_t{1} << i;
    const auto scan_traj = [&](TrajId t) {
      int32_t idx = state_slot_.Get(t, -1);
      if (idx < 0) {
        idx = static_cast<int32_t>(states_.size());
        state_slot_.Set(t, idx);
        states_.push_back(TrajState{t, 0, 0, 0.0, text_of_.Get(t, 0.0), 0.0,
                                    decay_pool_.size()});
        decay_pool_.resize(decay_pool_.size() + m, 0.0);
        partial_.push_back(idx);
        ++partial_count;
        ++stats->visited_trajectories;
      }
      TrajState& s = states_[idx];
      if ((s.mask & bit) != 0) return;  // source i already scanned tau
      const bool fresh = s.mask == 0;
      const double u_old = fresh ? 0.0 : s.cached_ub;
      s.mask |= bit;
      ++s.known;
      s.sum_decay += decay;
      decay_pool_[s.decay_base + i] = decay;
      ++stats->trajectory_hits;
      touched_since_rebuild = true;
      if (s.known == static_cast<int>(m)) {
        // Fully scanned: every d(o_i, tau) is exact; score it. Its only
        // remaining label contribution was to source i, just scanned.
        if (!fresh) labels[i] -= u_old;
        --partial_count;
        // Sum the decays in source order — the association order of
        // SimilarityModel::SpatialSim — not scan order, so the score is
        // independent of expansion scheduling (bit-identical across
        // policies, the oracle path, and the brute-force reference).
        const double* decays = decay_pool_.data() + s.decay_base;
        double sum = 0.0;
        for (size_t j = 0; j < m; ++j) sum += decays[j];
        const double spatial = sum / static_cast<double>(m);
        const double score = SimilarityModel::Combine(lambda, spatial, s.text);
        sink->Accept(ScoredTrajectory{t, score, spatial, s.text});
        ++stats->candidates;
        return;
      }
      const double u_new = state_ub(s);
      s.cached_ub = u_new;
      if (u_new > cached_max) cached_max = u_new;
      // Label deltas: source i stops missing this state; every still-
      // missing source sees the cached bound move u_old -> u_new.
      if (!fresh) labels[i] -= u_old;
      uint64_t unset = ~s.mask & full_mask;
      const double delta = u_new - u_old;
      while (unset != 0) {
        const int j = __builtin_ctzll(unset);
        labels[j] += delta;
        unset &= unset - 1;
      }
    };
    const MergedView::Postings lists = view_.TrajectoriesAt(v);
    for (TrajId t : lists.base) scan_traj(t);
    for (TrajId t : lists.delta) scan_traj(t);
  };

  // ---- Oracle threshold seeding. ----
  //
  // Resolve the strongest textual candidates exactly before any expansion,
  // until the top-k heap is full. This jumps the prune threshold to near
  // its final value immediately, so the oracle finisher below fires at the
  // smallest radius that excludes unseen keyword-less trajectories instead
  // of waiting for expansion to complete k candidates the slow way.
  //
  // Answer-preserving: the baseline offers every trajectory whose exact
  // score reaches the final k-th boundary (its bound never drops below the
  // rising threshold, so it is never pruned and must complete before any
  // termination test passes), and both sinks reduce the offered set through
  // the same (score, id) order — so offering extra exactly-scored
  // candidates early cannot change the kept set. A threshold-mode sink
  // reports its fixed theta (finite) and is never seeded.
  if (use_oracle) {
    ScopedPhase round(stats, QueryPhase::kBoundMaintenance);
    size_t seeded = 0;
    while (seeded < text_docs_.size() &&
           sink->PruneThreshold() ==
               -std::numeric_limits<double>::infinity()) {
      oracle_resolve(static_cast<TrajId>(text_docs_[seeded].doc));
      ++seeded;
    }
  }

  bool aborted = false;
  for (;;) {
    if (exhausted_count == m) break;  // everything is fully scanned
    // Deadline/cancel poll: once per round, between batches, so an armed
    // token bounds the reaction time at one expansion batch.
    if (ShouldAbort()) {
      aborted = true;
      break;
    }

    // Expand the current source for one batch. Without the oracle the
    // batch grows with the partly-scanned set so per-round bookkeeping
    // stays amortized. With it, every round is one batch: the finisher
    // below stops the search at the first round end where firing pays, and
    // rounds grown with the set overshoot that point by thousands of
    // settles (EXPERIMENTS.md K4).
    {
      ScopedPhase round(stats, QueryPhase::kSpatialExpansion);
      const int batch =
          use_oracle ? opts_.batch_size
                     : std::max<int>(opts_.batch_size,
                                     static_cast<int>(partial_count / 4));
      ExpansionCursor& ex = *expansions_[cur];
      if (!ex.exhausted()) {
        for (int step = 0; step < batch; ++step) {
          VertexId v;
          double d;
          if (!ex.Step(&v, &d)) {
            ++exhausted_count;
            cur_decay[cur] = 0.0;
            break;
          }
          ++stats->settled_vertices;
          process_hit(cur, v, d);
        }
        if (!ex.exhausted()) {
          cur_decay[cur] = model.SpatialDecay(ex.radius());
        }
      }
    }
    ++stats->schedule_steps;

    // ---- Termination check against the cached bound. ----
    bool terminated = false;
    {
      ScopedPhase round(stats, QueryPhase::kBoundMaintenance);
      total_rs = 0.0;
      for (size_t i = 0; i < m; ++i) total_rs += cur_decay[i];

      // Advance past fully scanned textual candidates.
      while (text_ptr < text_docs_.size()) {
        const int32_t idx = state_slot_.Get(text_docs_[text_ptr].doc, -1);
        if (idx >= 0 && states_[idx].known == static_cast<int>(m)) {
          ++text_ptr;
        } else {
          break;
        }
      }
      const double max_rem_text =
          text_ptr < text_docs_.size() ? text_docs_[text_ptr].score : 0.0;
      // Bound on everything the spatial domain has not seen at all.
      const double base_ub = SimilarityModel::Combine(
          lambda, total_rs / static_cast<double>(m), max_rem_text);
      const double threshold = sink->PruneThreshold();

      const auto current_global_ub = [&] {
        return partial_count > 0 ? std::max(base_ub, cached_max) : base_ub;
      };
      if (threshold >= current_global_ub()) {
        terminated = true;
      } else if (threshold >= base_ub &&
                 (touched_since_rebuild || total_rs < total_rs_at_rebuild)) {
        // Only the (possibly stale) partial max blocks termination and its
        // inputs have moved: pay for one exact rebuild and re-check.
        rebuild_bounds();
        if (threshold >= current_global_ub()) terminated = true;
      }

      if (!terminated && use_oracle) {
        // Oracle finisher. The expansion's remaining job splits in two:
        // (a) growing radii until the spatial-only bound collapses, and
        // (b) finishing the scan of every candidate still above threshold
        // — (b) is the expensive tail, since a high-SimT candidate's bound
        // cannot drop below the threshold until ALL m expansions reach it.
        // Once (a) is done, expansion can contribute nothing the oracle
        // does not deliver cheaper: resolve each still-blocking candidate
        // exactly and stop. `>=` (not `>`) matches the baseline on
        // boundary ties — a candidate whose exact score equals the final
        // threshold keeps its bound at or above the threshold until fully
        // scanned, so the baseline inevitably completes and offers it; the
        // finisher must offer it too.
        const double spatial_only = SimilarityModel::Combine(
            lambda, total_rs / static_cast<double>(m), 0.0);
        const double thr = sink->PruneThreshold();
        bool fire = false;
        if (thr >= spatial_only) {
          // Safe to fire — but is it profitable yet? Every expansion batch
          // shrinks the set the finisher would have to resolve (scans
          // complete candidates; falling decays lower bounds below the
          // threshold), so firing at the first safe round can be far more
          // expensive than waiting a little. Rent-or-buy: count the
          // resolutions firing now would take (partials whose cached bound
          // clears the threshold, plus unseen textual heads above the
          // radius bound) and fire once their cost, in expansion-settle
          // units, no longer exceeds the expansion work already done. The
          // count is a heuristic (cached bounds over-approximate), the
          // resolutions themselves stay exact. It stops once it passes the
          // budget, so a round that does not fire stays cheap.
          constexpr int64_t kResolveCostSettles = 160;
          constexpr int64_t kFreeSettles = 4096;
          const int64_t max_need =
              std::max<int64_t>(stats->settled_vertices, kFreeSettles) /
              kResolveCostSettles;
          const ScoredDoc* text_beg = text_docs_.data() + text_ptr;
          const ScoredDoc* text_end = text_docs_.data() + text_docs_.size();
          const ScoredDoc* text_cut = std::partition_point(
              text_beg, text_end,
              [&](const ScoredDoc& d) {
                return SimilarityModel::Combine(
                           lambda, total_rs / static_cast<double>(m),
                           d.score) > thr;
              });
          int64_t need = text_cut - text_beg;
          for (const int32_t idx : partial_) {
            if (need > max_need) break;
            const TrajState& s = states_[idx];
            if (s.known != static_cast<int>(m) && s.cached_ub >= thr) ++need;
          }
          fire = need <= max_need;
        }
        if (fire) {
          for (const int32_t idx : partial_) {
            TrajState& s = states_[idx];
            if (s.known == static_cast<int>(m)) continue;  // already exact
            if (state_ub(s) >= sink->PruneThreshold()) {
              oracle_resolve(s.id);
            } else {
              // Its exact score is strictly below a threshold that only
              // rises: the full resolution (and the tail expansion the
              // baseline would spend completing it) is skipped outright.
              ++stats->oracle_pruned_candidates;
            }
          }
          // Unseen textual candidates, in descending SimT order: resolve
          // heads while they can still beat the threshold. Everything at
          // or past the break point — and every spatially-unseen
          // trajectory with less text — is bounded below the threshold by
          // the same expression the baseline terminates against.
          while (text_ptr < text_docs_.size()) {
            const ScoredDoc& head = text_docs_[text_ptr];
            if (sink->PruneThreshold() >=
                SimilarityModel::Combine(lambda,
                                         total_rs / static_cast<double>(m),
                                         head.score)) {
              break;
            }
            oracle_resolve(static_cast<TrajId>(head.doc));
            ++text_ptr;
          }
          terminated = true;
        }
      }
    }
    if (terminated) break;

    // ---- Pick the next query source. ----
    {
      ScopedPhase round(stats, QueryPhase::kScheduling);
      switch (opts_.scheduling) {
        case SchedulingPolicy::kHeuristic: {
          double best = -1.0;
          size_t best_i = cur;
          for (size_t i = 0; i < m; ++i) {
            if (expansions_[i]->exhausted()) continue;
            // Break label ties by least-settled so fresh sources get
            // started.
            if (labels[i] > best ||
                (labels[i] == best &&
                 expansions_[i]->settled_count() <
                     expansions_[best_i]->settled_count())) {
              best = labels[i];
              best_i = i;
            }
          }
          cur = best_i;
          break;
        }
        case SchedulingPolicy::kRoundRobin: {
          for (size_t step = 1; step <= m; ++step) {
            const size_t i = (cur + step) % m;
            if (!expansions_[i]->exhausted()) {
              cur = i;
              break;
            }
          }
          break;
        }
        case SchedulingPolicy::kSequential: {
          // Stay on the current source until it exhausts, then move to the
          // lowest-indexed source that still has work.
          if (expansions_[cur]->exhausted()) {
            size_t next = 0;
            while (next < m && expansions_[next]->exhausted()) ++next;
            if (next < m) cur = next;
          }
          break;
        }
      }
    }
    if (expansions_[cur]->exhausted()) break;  // all done
  }

  // Expose the heap behavior of this query's expansions: with the indexed
  // frontier heap, pops == settles (stale pops would show up here). Heap
  // counters are live work only — replayed events did no heap work, which
  // is exactly the tier-2 saving — so settles are compared against the
  // cursor's live count, not its logical one. Prefixes are published even
  // from aborted searches: any recorded prefix is a valid recording.
  for (size_t i = 0; i < m; ++i) {
    ExpansionCursor& done = *expansions_[i];
    stats->heap_pops += done.heap_pops();
    stats->heap_pushes += done.heap_pushes();
    stats->heap_decreases += done.heap_decreases();
    stats->heap_stale_pops += done.heap_pops() - done.live_settled_count();
    if (done.from_cache()) ++stats->dcache_hits;
    stats->dcache_replayed += done.replayed_count();
    if (done.Publish()) ++stats->dcache_published;
  }
  if (use_oracle) stats->oracle_lookups += oracle_->TakeLookups();
  if (aborted) {
    return Status::DeadlineExceeded("search aborted by deadline/cancel");
  }
  return Status::OK();
}

Result<SearchResult> UotsSearcher::Search(const UotsQuery& query) {
  UOTS_RETURN_NOT_OK(ValidateQuery(query, db_->network().NumVertices()));
  UOTS_TRACE_SCOPE(name());
  WallTimer timer;
  view_.Bind(*db_);
  SearchResult out;
  ResolveTextualDomain(query, &out.stats);
  if (query.lambda == 0.0) {
    Result<SearchResult> r = SearchTextOnly(query);
    if (r.ok()) {
      r->stats.posting_entries = out.stats.posting_entries;
      r->stats.phase_ns[static_cast<int>(QueryPhase::kTextualFilter)] +=
          out.stats.PhaseNs(QueryPhase::kTextualFilter);
      r->stats.elapsed_ms = timer.ElapsedMillis();
    }
    return r;
  }
  Sink sink(static_cast<size_t>(query.k));
  UOTS_RETURN_NOT_OK(RunSearch(query, &sink, &out.stats));
  {
    ScopedPhase phase(&out.stats, QueryPhase::kRefinement);
    out.items = std::move(sink).Finish();
  }
  out.stats.elapsed_ms = timer.ElapsedMillis();
  return out;
}

Result<SearchResult> UotsSearcher::SearchThreshold(const UotsQuery& query,
                                                   double theta) {
  UOTS_RETURN_NOT_OK(ValidateQuery(query, db_->network().NumVertices()));
  UOTS_TRACE_SCOPE("UOTS-threshold");
  WallTimer timer;
  view_.Bind(*db_);
  SearchResult out;
  ResolveTextualDomain(query, &out.stats);
  if (query.lambda == 0.0) {
    Result<SearchResult> r = SearchTextOnlyThreshold(query, theta);
    if (r.ok()) {
      r->stats.posting_entries = out.stats.posting_entries;
      r->stats.phase_ns[static_cast<int>(QueryPhase::kTextualFilter)] +=
          out.stats.PhaseNs(QueryPhase::kTextualFilter);
      r->stats.elapsed_ms = timer.ElapsedMillis();
    }
    return r;
  }
  Sink sink(theta);
  UOTS_RETURN_NOT_OK(RunSearch(query, &sink, &out.stats));
  {
    ScopedPhase phase(&out.stats, QueryPhase::kRefinement);
    out.items = std::move(sink).Finish();
  }
  out.stats.elapsed_ms = timer.ElapsedMillis();
  return out;
}

}  // namespace uots
