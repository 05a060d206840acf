#include "server/request_kind.h"

#include <cstdio>

#include "server/server.h"

namespace uots {

namespace {

/// The summary fields both kinds share: "locs=.. kw=.. lambda=.. k=..".
template <typename Query>
std::string SummarizeEnvelope(const Query& q) {
  std::string out = "locs=";
  out += std::to_string(q.locations.size());
  out += " kw=";
  out += std::to_string(q.keywords.size());
  out += " lambda=";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", q.lambda);
  out += buf;
  out += " k=";
  out += std::to_string(q.k);
  return out;
}

}  // namespace

std::string RetrievalKind::Summarize(const Query& q, Variant v) {
  std::string out = SummarizeEnvelope(q);
  out += " algo=";
  out += ToString(v);
  return out;
}

void TripKind::RecordPhases(ServerHistograms& h, const Status& status,
                            const Output& out, double execute_ms) {
  h.trip_plan.Record(static_cast<int64_t>(execute_ms * 1e6));
  if (status.ok()) {
    h.trip_harvest.Record(out.stats.PhaseNs(QueryPhase::kTripHarvest));
    h.trip_assemble.Record(out.stats.PhaseNs(QueryPhase::kTripAssemble));
  }
}

std::string TripKind::Summarize(const Query& q, Variant) {
  std::string out = "trip " + SummarizeEnvelope(q);
  out += " ordered=";
  out += q.ordered ? '1' : '0';
  out += " cat=";
  out += q.use_categories ? '1' : '0';
  if (q.gap_budget_m > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " gap=%.3g", q.gap_budget_m);
    out += buf;
  }
  return out;
}

}  // namespace uots
