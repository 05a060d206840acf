#include "core/temporal.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/topk.h"
#include "net/dijkstra.h"
#include "util/timer.h"

namespace uots {

namespace {

double Combine3(const TemporalUotsQuery& q, double spatial, double temporal,
                double textual) {
  return q.weight_spatial * spatial + q.weight_temporal * temporal +
         q.weight_textual * textual;
}

}  // namespace

Status ValidateTemporalQuery(const TemporalUotsQuery& q, size_t num_vertices) {
  if (q.locations.empty()) {
    return Status::InvalidArgument("query needs at least one location");
  }
  if (q.locations.size() + q.times.size() > kMaxQueryLocations) {
    return Status::InvalidArgument("too many query sources (max 64 total)");
  }
  for (VertexId v : q.locations) {
    if (v >= num_vertices) {
      return Status::InvalidArgument("query location out of range");
    }
  }
  for (int32_t t : q.times) {
    if (t < 0 || t >= kSecondsPerDay) {
      return Status::InvalidArgument("query time outside [0, 86400)");
    }
  }
  if (q.weight_spatial < 0 || q.weight_temporal < 0 || q.weight_textual < 0) {
    return Status::InvalidArgument("weights must be non-negative");
  }
  const double sum = q.weight_spatial + q.weight_temporal + q.weight_textual;
  if (std::fabs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("weights must sum to 1");
  }
  if (q.times.empty() && q.weight_temporal != 0.0) {
    return Status::InvalidArgument("weight_temporal needs query times");
  }
  if (q.k < 1) return Status::InvalidArgument("k must be >= 1");
  return Status::OK();
}

Result<TemporalSearchResult> BruteForceTemporalSearch(
    const TrajectoryDatabase& db, const TemporalUotsQuery& query) {
  UOTS_RETURN_NOT_OK(ValidateTemporalQuery(query, db.network().NumVertices()));
  UOTS_TRACE_SCOPE("BF-3D");
  WallTimer timer;
  TemporalSearchResult out;
  const auto& store = db.store();
  const auto& model = db.model();

  std::vector<ShortestPathTree> trees;
  trees.reserve(query.locations.size());
  {
    ScopedPhase phase(&out.stats, QueryPhase::kSpatialExpansion);
    for (VertexId o : query.locations) {
      trees.push_back(ComputeShortestPathTree(db.network(), o));
      out.stats.settled_vertices +=
          static_cast<int64_t>(db.network().NumVertices());
    }
  }

  {
    ScopedPhase refine_phase(&out.stats, QueryPhase::kRefinement);
    TopK<TemporalScoredTrajectory> topk(static_cast<size_t>(query.k));
    for (TrajId id = 0; id < store.size(); ++id) {
      const auto samples = store.SamplesOf(id);
      double spatial = 0.0;
      for (const auto& tree : trees) {
        double best = std::numeric_limits<double>::infinity();
        for (const Sample& s : samples) {
          best = std::min(best, tree.dist[s.vertex]);
        }
        spatial += model.SpatialDecay(best);
      }
      spatial /= static_cast<double>(trees.size());

      double temporal = 0.0;
      if (!query.times.empty()) {
        for (int32_t t : query.times) {
          double best = std::numeric_limits<double>::infinity();
          for (const Sample& s : samples) {
            best = std::min(best, std::fabs(static_cast<double>(t) - s.time_s));
          }
          temporal += model.TemporalDecay(best);
        }
        temporal /= static_cast<double>(query.times.size());
      }

      const double textual =
          model.textual().Score(query.keywords, store.KeywordsOf(id));
      topk.Offer(TemporalScoredTrajectory{
          id, Combine3(query, spatial, temporal, textual), spatial, temporal,
          textual});
      ++out.stats.visited_trajectories;
      ++out.stats.candidates;
    }
    out.items = std::move(topk).Finish();
  }
  out.stats.elapsed_ms = timer.ElapsedMillis();
  return out;
}

TemporalUotsSearcher::TemporalUotsSearcher(const TrajectoryDatabase& db,
                                           const UotsSearchOptions& opts)
    : db_(&db), opts_(opts) {
  state_slot_.Resize(db.store().size());
  text_of_.Resize(db.store().size());
}

Result<TemporalSearchResult> TemporalUotsSearcher::Search(
    const TemporalUotsQuery& query) {
  UOTS_RETURN_NOT_OK(
      ValidateTemporalQuery(query, db_->network().NumVertices()));
  UOTS_TRACE_SCOPE("UOTS-3D");
  WallTimer timer;
  TemporalSearchResult out;
  const auto& store = db_->store();
  const auto& model = db_->model();
  const auto& vindex = db_->vertex_index();
  const size_t ms = query.locations.size();
  const size_t mt = query.times.size();
  const size_t total_sources = ms + mt;

  if (state_slot_.size() != store.size()) {
    state_slot_.Resize(store.size());
    text_of_.Resize(store.size());
  }

  // ---- Textual domain. ----
  {
    ScopedPhase phase(&out.stats, QueryPhase::kTextualFilter);
    const auto doc_keys = [this](DocId d) {
      return db_->store().KeywordsOf(static_cast<TrajId>(d));
    };
    db_->keyword_index().ScoreCandidates(query.keywords, model.textual(),
                                         &text_docs_, &out.stats.posting_entries,
                                         doc_keys, &text_scratch_);
    std::sort(text_docs_.begin(), text_docs_.end(),
              [](const ScoredDoc& a, const ScoredDoc& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    text_of_.Reset();
    for (const ScoredDoc& d : text_docs_) text_of_.Set(d.doc, d.score);
  }

  // ---- Expansions: sources [0, ms) spatial, [ms, ms+mt) temporal. ----
  while (spatial_.size() < ms) {
    spatial_.push_back(std::make_unique<NetworkExpansion>(db_->network()));
  }
  while (temporal_.size() < mt) {
    temporal_.push_back(
        std::make_unique<TemporalExpansion>(db_->time_index()));
  }
  std::vector<double> cur_decay(total_sources);
  std::vector<bool> exhausted(total_sources, false);
  for (size_t i = 0; i < ms; ++i) {
    spatial_[i]->Reset(query.locations[i]);
    cur_decay[i] = 1.0;
  }
  for (size_t j = 0; j < mt; ++j) {
    temporal_[j]->Reset(query.times[j]);
    cur_decay[ms + j] = 1.0;
    exhausted[ms + j] = temporal_[j]->exhausted();  // empty store
  }
  size_t exhausted_count = 0;
  for (bool e : exhausted) exhausted_count += e ? 1 : 0;

  state_slot_.Reset();
  states_.clear();
  partial_.clear();

  TopK<TemporalScoredTrajectory> topk(static_cast<size_t>(query.k));
  size_t text_ptr = 0;
  std::vector<double> labels(total_sources, 0.0);
  size_t cur = 0;

  // Registers one (source, trajectory, decay) hit; source < ms is spatial.
  const auto process_hit = [&](size_t src, TrajId t, double decay) {
    int32_t idx = state_slot_.Get(t, -1);
    if (idx < 0) {
      idx = static_cast<int32_t>(states_.size());
      state_slot_.Set(t, idx);
      states_.push_back(TrajState{t, 0, 0, 0.0, 0.0, text_of_.Get(t, 0.0)});
      partial_.push_back(idx);
      ++out.stats.visited_trajectories;
    }
    TrajState& s = states_[idx];
    const uint64_t bit = uint64_t{1} << src;
    if ((s.mask & bit) != 0) return;
    s.mask |= bit;
    ++s.known;
    if (src < ms) {
      s.sum_spatial += decay;
    } else {
      s.sum_temporal += decay;
    }
    ++out.stats.trajectory_hits;
    if (s.known == static_cast<int>(total_sources)) {
      const double sp = s.sum_spatial / static_cast<double>(ms);
      const double tp = mt > 0 ? s.sum_temporal / static_cast<double>(mt) : 0.0;
      topk.Offer(TemporalScoredTrajectory{
          t, Combine3(query, sp, tp, s.text), sp, tp, s.text});
      ++out.stats.candidates;
    }
  };

  for (;;) {
    if (exhausted_count == total_sources) break;

    const int batch =
        std::max<int>(opts_.batch_size, static_cast<int>(partial_.size() / 4));
    if (!exhausted[cur]) {
      ScopedPhase round(&out.stats, QueryPhase::kSpatialExpansion);
      if (cur < ms) {
        NetworkExpansion& ex = *spatial_[cur];
        for (int step = 0; step < batch; ++step) {
          VertexId v;
          double d;
          if (!ex.Step(&v, &d)) {
            exhausted[cur] = true;
            ++exhausted_count;
            cur_decay[cur] = 0.0;
            break;
          }
          ++out.stats.settled_vertices;
          const double decay = model.SpatialDecay(d);
          for (TrajId t : vindex.TrajectoriesAt(v)) process_hit(cur, t, decay);
        }
        if (!exhausted[cur]) cur_decay[cur] = model.SpatialDecay(ex.radius());
      } else {
        TemporalExpansion& ex = *temporal_[cur - ms];
        for (int step = 0; step < batch; ++step) {
          TrajId t;
          double dt;
          if (!ex.Step(&t, &dt)) {
            exhausted[cur] = true;
            ++exhausted_count;
            cur_decay[cur] = 0.0;
            break;
          }
          ++out.stats.settled_vertices;
          process_hit(cur, t, model.TemporalDecay(dt));
        }
        if (!exhausted[cur]) cur_decay[cur] = model.TemporalDecay(ex.radius());
      }
    }
    ++out.stats.schedule_steps;

    // ---- Termination check + scheduling sweep. ----
    bool terminated = false;
    {
      ScopedPhase bounds_round(&out.stats, QueryPhase::kBoundMaintenance);
      double total_rs_spatial = 0.0, total_rs_temporal = 0.0;
      for (size_t i = 0; i < ms; ++i) total_rs_spatial += cur_decay[i];
      for (size_t j = 0; j < mt; ++j) total_rs_temporal += cur_decay[ms + j];

      while (text_ptr < text_docs_.size()) {
        const int32_t idx = state_slot_.Get(text_docs_[text_ptr].doc, -1);
        if (idx >= 0 &&
            states_[idx].known == static_cast<int>(total_sources)) {
          ++text_ptr;
        } else {
          break;
        }
      }
      const double max_rem_text =
          text_ptr < text_docs_.size() ? text_docs_[text_ptr].score : 0.0;
      double global_ub =
          Combine3(query, total_rs_spatial / static_cast<double>(ms),
                   mt > 0 ? total_rs_temporal / static_cast<double>(mt) : 0.0,
                   max_rem_text);

      const bool heuristic = opts_.scheduling == SchedulingPolicy::kHeuristic;
      if (heuristic) std::fill(labels.begin(), labels.end(), 0.0);
      size_t w = 0;
      for (size_t r = 0; r < partial_.size(); ++r) {
        const TrajState& s = states_[partial_[r]];
        if (s.known == static_cast<int>(total_sources)) continue;
        partial_[w++] = partial_[r];
        double missing_sp = total_rs_spatial;
        double missing_tp = total_rs_temporal;
        uint64_t mask = s.mask;
        while (mask != 0) {
          const int i = __builtin_ctzll(mask);
          if (static_cast<size_t>(i) < ms) {
            missing_sp -= cur_decay[i];
          } else {
            missing_tp -= cur_decay[i];
          }
          mask &= mask - 1;
        }
        const double ub_sp =
            (s.sum_spatial + missing_sp) / static_cast<double>(ms);
        const double ub_tp =
            mt > 0 ? (s.sum_temporal + missing_tp) / static_cast<double>(mt)
                   : 0.0;
        const double ub = Combine3(query, ub_sp, ub_tp, s.text);
        if (ub > global_ub) global_ub = ub;
        if (heuristic) {
          uint64_t unset =
              ~s.mask & ((total_sources == 64)
                             ? ~uint64_t{0}
                             : ((uint64_t{1} << total_sources) - 1));
          while (unset != 0) {
            const int i = __builtin_ctzll(unset);
            labels[i] += ub;
            unset &= unset - 1;
          }
        }
      }
      partial_.resize(w);

      if (topk.Full() && topk.Threshold() >= global_ub) terminated = true;
    }
    if (terminated) break;

    // ---- Pick the next query source (same policies as two-domain). ----
    {
      ScopedPhase sched_round(&out.stats, QueryPhase::kScheduling);
      switch (opts_.scheduling) {
        case SchedulingPolicy::kHeuristic: {
          double best = -1.0;
          size_t best_i = cur;
          for (size_t i = 0; i < total_sources; ++i) {
            if (exhausted[i]) continue;
            if (labels[i] > best) {
              best = labels[i];
              best_i = i;
            }
          }
          cur = best_i;
          break;
        }
        case SchedulingPolicy::kRoundRobin: {
          for (size_t step = 1; step <= total_sources; ++step) {
            const size_t i = (cur + step) % total_sources;
            if (!exhausted[i]) {
              cur = i;
              break;
            }
          }
          break;
        }
        case SchedulingPolicy::kSequential: {
          for (size_t i = 0; i < total_sources && exhausted[cur]; ++i) {
            cur = i;
          }
          break;
        }
      }
    }
    if (exhausted[cur]) break;
  }

  {
    ScopedPhase phase(&out.stats, QueryPhase::kRefinement);
    out.items = std::move(topk).Finish();
  }
  out.stats.elapsed_ms = timer.ElapsedMillis();
  return out;
}

}  // namespace uots
