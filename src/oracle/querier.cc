#include "oracle/querier.h"

namespace uots {

OracleQuerier::OracleQuerier(const DistanceOracle& oracle)
    : oracle_(&oracle),
      core_(&oracle.core()),
      pending_((oracle.NumVertices() + 63) / 64, 0),
      bucket_head_(oracle.NumVertices()),
      row_of_(oracle.NumVertices()) {
  fwd_.dist.assign(oracle.NumVertices(), kInfDistance);
  up_.dist.assign(oracle.NumVertices(), kInfDistance);
}

double OracleQuerier::Distance(VertexId s, VertexId t) {
  ++lookups_;
  if (s == t) return 0.0;
  // The backward side probes the forward labels at every scanned node and
  // leaves a node unrelaxed once its own label reaches the best meet,
  // since every label above it would be at least as long.
  SweepFrom(s, &fwd_, [](uint32_t, double) { return true; });
  double best = kInfDistance;
  SweepFrom(t, &up_, [&](uint32_t u, double d) {
    const double meet = fwd_.dist[u] + d;
    if (meet < best) best = meet;
    return d < best;
  });
  // The join reads one table row per source entry against the target
  // entries that can still beat `best`, packed as core columns and labels;
  // two running minima let consecutive columns' loads overlap.
  const uint32_t first = core_->first;
  join_col_.clear();
  join_label_.clear();
  for (const uint32_t b : up_.entries) {
    if (up_.dist[b] < best) {
      join_col_.push_back(b - first);
      join_label_.push_back(up_.dist[b]);
    }
  }
  const size_t nb = join_col_.size();
  for (const uint32_t a : fwd_.entries) {
    const double fa = fwd_.dist[a];
    if (fa >= best) continue;  // table entries are non-negative
    const double* row = core_->Row(a - first);
    double m0 = kInfDistance;
    double m1 = kInfDistance;
    size_t j = 0;
    for (; j + 1 < nb; j += 2) {
      m0 = std::min(m0, row[join_col_[j]] + join_label_[j]);
      m1 = std::min(m1, row[join_col_[j + 1]] + join_label_[j + 1]);
    }
    if (j < nb) m0 = std::min(m0, row[join_col_[j]] + join_label_[j]);
    best = std::min(best, fa + std::min(m0, m1));
  }
  return best;
}

void OracleQuerier::JoinSourceRows(const Labels& lab, double* out) const {
  const uint32_t first = core_->first;
  const uint32_t c = core_->size;
  for (size_t i = 0; i < num_sources_; ++i) {
    const double* row = source_core_.data() + i * c;
    double m = out[i];
    for (const uint32_t b : lab.entries) {
      m = std::min(m, row[b - first] + lab.dist[b]);
    }
    out[i] = m;
  }
}

void OracleQuerier::BeginQuery(std::span<const VertexId> sources) {
  num_sources_ = sources.size();
  bucket_head_.Reset();
  bucket_pool_.clear();
  row_of_.Reset();
  row_pool_.clear();
  const uint32_t first = core_->first;
  const uint32_t c = core_->size;
  source_core_.assign(num_sources_ * c, kInfDistance);
  for (size_t i = 0; i < sources.size(); ++i) {
    SweepFrom(sources[i], &up_, [&](uint32_t u, double d) {
      const int32_t head = bucket_head_.Get(u, -1);
      bucket_head_.Set(u, static_cast<int32_t>(bucket_pool_.size()));
      bucket_pool_.push_back(BucketEntry{static_cast<uint32_t>(i), d, head});
      return true;
    });
    // S_i[b] = min over the source's entries a of f_i[a] + D[a][b]. An
    // entry a that a kept entry a' reaches through the table, f[a'] +
    // D[a'][a] <= f[a], adds nothing: every term is an exact path sum, so
    // f[a'] + D[a'][b] <= f[a'] + D[a'][a] + D[a][b] <= f[a] + D[a][b] for
    // every b. Entries fold in ascending (label, rank) order, so a
    // dominator comes first. Checking only kept entries keeps one entry of
    // every exact tie and loses nothing: whatever dominates a dropped entry
    // dominates what that entry dominates. D[a'][a] is read as D[a][a']
    // from a's row (the network is undirected).
    double* out = source_core_.data() + i * c;
    fold_order_ = up_.entries;
    std::sort(fold_order_.begin(), fold_order_.end(),
              [&](uint32_t x, uint32_t y) {
                const double dx = up_.dist[x];
                const double dy = up_.dist[y];
                return dx != dy ? dx < dy : x < y;
              });
    kept_.clear();
    for (const uint32_t a : fold_order_) {
      const double fa = up_.dist[a];
      const double* row = core_->Row(a - first);
      const bool dominated =
          std::any_of(kept_.begin(), kept_.end(), [&](uint32_t k) {
            return up_.dist[k] + row[k - first] <= fa;
          });
      if (dominated) {
        ++dominated_entries_;
        continue;
      }
      kept_.push_back(a);
      for (uint32_t b = 0; b < c; ++b) out[b] = std::min(out[b], fa + row[b]);
    }
  }
}

std::span<const double> OracleQuerier::DistancesTo(VertexId v) {
  if (row_of_.Has(v)) {
    return {row_pool_.data() + row_of_.Get(v), num_sources_};
  }
  const size_t base = row_pool_.size();
  row_pool_.resize(base + num_sources_, kInfDistance);
  row_of_.Set(v, static_cast<int64_t>(base));
  ++lookups_;
  SweepFrom(v, &up_, [&](uint32_t u, double d) {
    for (int32_t e = bucket_head_.Get(u, -1); e >= 0;
         e = bucket_pool_[e].next) {
      const BucketEntry& b = bucket_pool_[e];
      double& slot = row_pool_[base + b.source];
      const double cand = b.dist + d;
      if (cand < slot) slot = cand;
    }
    return true;
  });
  JoinSourceRows(up_, row_pool_.data() + base);
  return {row_pool_.data() + base, num_sources_};
}

std::span<const double> OracleQuerier::MinDistancesTo(
    std::span<const VertexId> set) {
  ++lookups_;
  min_row_.assign(num_sources_, kInfDistance);
  up_.Reset();
  for (const VertexId v : set) {
    const uint32_t r = oracle_->RankOf(v);
    if (up_.dist[r] != 0.0) Reach(&up_, r, 0.0);  // skip duplicates
  }
  Sweep(&up_, [&](uint32_t u, double d) {
    for (int32_t e = bucket_head_.Get(u, -1); e >= 0;
         e = bucket_pool_[e].next) {
      const BucketEntry& b = bucket_pool_[e];
      const double cand = b.dist + d;
      if (cand < min_row_[b.source]) min_row_[b.source] = cand;
    }
    return true;
  });
  JoinSourceRows(up_, min_row_.data());
  return {min_row_.data(), num_sources_};
}

}  // namespace uots
