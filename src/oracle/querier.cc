#include "oracle/querier.h"

namespace uots {

OracleQuerier::OracleQuerier(const DistanceOracle& oracle)
    : oracle_(&oracle),
      pending_((oracle.NumVertices() + 63) / 64, 0),
      bucket_head_(oracle.NumVertices()),
      row_of_(oracle.NumVertices()) {
  fwd_.dist.assign(oracle.NumVertices(), kInfDistance);
  up_.dist.assign(oracle.NumVertices(), kInfDistance);
}

double OracleQuerier::Distance(VertexId s, VertexId t) {
  ++lookups_;
  if (s == t) return 0.0;
  // The forward side runs to exhaustion (upward search spaces are tiny);
  // the backward side probes its labels at every scanned node and leaves
  // a node unrelaxed once its own label reaches the best meet, since every
  // label above it would be at least as long.
  SweepFrom(s, &fwd_, [](uint32_t, double) { return true; });
  double best = kInfDistance;
  SweepFrom(t, &up_, [&](uint32_t u, double d) {
    const double meet = fwd_.dist[u] + d;
    if (meet < best) best = meet;
    return d < best;
  });
  return best;
}

void OracleQuerier::BeginQuery(std::span<const VertexId> sources) {
  num_sources_ = sources.size();
  bucket_head_.Reset();
  bucket_pool_.clear();
  row_of_.Reset();
  row_pool_.clear();
  for (size_t i = 0; i < sources.size(); ++i) {
    SweepFrom(sources[i], &up_, [&](uint32_t u, double d) {
      const int32_t head = bucket_head_.Get(u, -1);
      bucket_head_.Set(u, static_cast<int32_t>(bucket_pool_.size()));
      bucket_pool_.push_back(BucketEntry{static_cast<uint32_t>(i), d, head});
      return true;
    });
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
  return {min_row_.data(), num_sources_};
}

}  // namespace uots
