#include "util/counters.h"

#include <charconv>
#include <sstream>

namespace uots {

const char* ToString(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kTextualFilter:
      return "textual_filter";
    case QueryPhase::kSpatialExpansion:
      return "spatial_expansion";
    case QueryPhase::kBoundMaintenance:
      return "bound_maintenance";
    case QueryPhase::kScheduling:
      return "scheduling";
    case QueryPhase::kRefinement:
      return "refinement";
    case QueryPhase::kTripHarvest:
      return "trip_harvest";
    case QueryPhase::kTripAssemble:
      return "trip_assemble";
  }
  return "unknown";
}

std::string QueryStats::ToString() const {
  std::ostringstream os;
  os << "visited=" << visited_trajectories << " hits=" << trajectory_hits
     << " settled=" << settled_vertices << " pops=" << heap_pops
     << " pushes=" << heap_pushes << " decreases=" << heap_decreases
     << " stale=" << heap_stale_pops << " candidates=" << candidates
     << " postings=" << posting_entries << " steps=" << schedule_steps
     << " rebuilds=" << bound_rebuilds << " dcache_hits=" << dcache_hits
     << " dcache_replayed=" << dcache_replayed
     << " dcache_published=" << dcache_published
     << " oracle_lookups=" << oracle_lookups
     << " oracle_pruned=" << oracle_pruned_candidates << " ms=" << elapsed_ms;
  os << " phases[";
  for (int i = 0; i < kNumQueryPhases; ++i) {
    if (i != 0) os << " ";
    os << uots::ToString(static_cast<QueryPhase>(i)) << "="
       << PhaseMillis(static_cast<QueryPhase>(i)) << "ms";
  }
  os << "]";
  return os.str();
}

namespace {

constexpr QueryStatsField kIntFields[] = {
    {"visited_trajectories", &QueryStats::visited_trajectories},
    {"trajectory_hits", &QueryStats::trajectory_hits},
    {"settled_vertices", &QueryStats::settled_vertices},
    {"heap_pops", &QueryStats::heap_pops},
    {"heap_pushes", &QueryStats::heap_pushes},
    {"heap_decreases", &QueryStats::heap_decreases},
    {"heap_stale_pops", &QueryStats::heap_stale_pops},
    {"candidates", &QueryStats::candidates},
    {"posting_entries", &QueryStats::posting_entries},
    {"schedule_steps", &QueryStats::schedule_steps},
    {"bound_rebuilds", &QueryStats::bound_rebuilds},
    {"dcache_hits", &QueryStats::dcache_hits},
    {"dcache_replayed", &QueryStats::dcache_replayed},
    {"dcache_published", &QueryStats::dcache_published},
    {"oracle_lookups", &QueryStats::oracle_lookups},
    {"oracle_pruned_candidates", &QueryStats::oracle_pruned_candidates},
};

/// `"key": ` in ToJson()'s spacing.
void AppendKey(const char* key, std::string* out) {
  out->push_back('"');
  out->append(key);
  out->append("\": ");
}

/// An ostream's default double rendering: printf "%g", precision 6.
void AppendDefaultDouble(double v, std::string* out) {
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 6)
                       .ptr);
}

}  // namespace

std::span<const QueryStatsField> QueryStatsIntFields() { return kIntFields; }

std::string QueryStats::ToJson() const {
  std::string out;
  out.reserve(640);  // the object is ~560 bytes with every counter at 0
  AppendJson(&out);
  return out;
}

void QueryStats::AppendJson(std::string* out) const {
  char buf[24];
  out->push_back('{');
  for (const QueryStatsField& f : kIntFields) {
    AppendKey(f.key, out);
    out->append(buf,
                std::to_chars(buf, buf + sizeof(buf), this->*f.member).ptr);
    out->append(", ");
  }
  AppendKey("elapsed_ms", out);
  AppendDefaultDouble(elapsed_ms, out);
  out->append(", \"phase_ms\": {");
  for (int i = 0; i < kNumQueryPhases; ++i) {
    if (i != 0) out->append(", ");
    const QueryPhase phase = static_cast<QueryPhase>(i);
    AppendKey(uots::ToString(phase), out);
    AppendDefaultDouble(PhaseMillis(phase), out);
  }
  out->append("}}");
}

}  // namespace uots
