// QueryStats: phase accounting, aggregation, and rendering.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/counters.h"

namespace uots {
namespace {

TEST(QueryPhase, NamesAreStable) {
  EXPECT_STREQ(ToString(QueryPhase::kTextualFilter), "textual_filter");
  EXPECT_STREQ(ToString(QueryPhase::kSpatialExpansion), "spatial_expansion");
  EXPECT_STREQ(ToString(QueryPhase::kBoundMaintenance), "bound_maintenance");
  EXPECT_STREQ(ToString(QueryPhase::kScheduling), "scheduling");
  EXPECT_STREQ(ToString(QueryPhase::kRefinement), "refinement");
}

TEST(QueryStats, PhaseAccessors) {
  QueryStats s;
  EXPECT_EQ(s.TotalPhaseNs(), 0);
  s.phase_ns[static_cast<int>(QueryPhase::kSpatialExpansion)] = 2'000'000;
  s.phase_ns[static_cast<int>(QueryPhase::kRefinement)] = 500'000;
  EXPECT_EQ(s.PhaseNs(QueryPhase::kSpatialExpansion), 2'000'000);
  EXPECT_DOUBLE_EQ(s.PhaseMillis(QueryPhase::kSpatialExpansion), 2.0);
  EXPECT_EQ(s.TotalPhaseNs(), 2'500'000);
}

TEST(QueryStats, ScopedPhaseAccumulates) {
  QueryStats s;
  {
    ScopedPhase phase(&s, QueryPhase::kBoundMaintenance);
    // Any amount of work; the scope must account a non-negative duration.
  }
  {
    ScopedPhase phase(&s, QueryPhase::kBoundMaintenance);
  }
  EXPECT_GE(s.PhaseNs(QueryPhase::kBoundMaintenance), 0);
  EXPECT_EQ(s.PhaseNs(QueryPhase::kScheduling), 0);
}

TEST(QueryStats, PlusEqualsSumsEverything) {
  QueryStats a, b;
  a.visited_trajectories = 3;
  a.candidates = 2;
  a.phase_ns[0] = 100;
  a.phase_ns[4] = 50;
  a.elapsed_ms = 1.5;
  b.visited_trajectories = 7;
  b.candidates = 1;
  b.phase_ns[0] = 900;
  b.phase_ns[2] = 30;
  b.elapsed_ms = 0.5;
  a += b;
  EXPECT_EQ(a.visited_trajectories, 10);
  EXPECT_EQ(a.candidates, 3);
  EXPECT_EQ(a.phase_ns[0], 1000);
  EXPECT_EQ(a.phase_ns[2], 30);
  EXPECT_EQ(a.phase_ns[4], 50);
  EXPECT_DOUBLE_EQ(a.elapsed_ms, 2.0);
}

TEST(QueryStats, ToStringIncludesCountersAndPhases) {
  QueryStats s;
  s.visited_trajectories = 42;
  s.phase_ns[static_cast<int>(QueryPhase::kTextualFilter)] = 3'000'000;
  const std::string str = s.ToString();
  EXPECT_NE(str.find("visited=42"), std::string::npos);
  EXPECT_NE(str.find("textual_filter=3ms"), std::string::npos);
  EXPECT_NE(str.find("phases["), std::string::npos);
}

TEST(QueryStats, ToJsonIsWellFormed) {
  QueryStats s;
  s.visited_trajectories = 5;
  s.candidates = 4;
  s.phase_ns[static_cast<int>(QueryPhase::kRefinement)] = 1'500'000;
  s.elapsed_ms = 2.25;
  const std::string json = s.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"visited_trajectories\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"candidates\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"phase_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"refinement\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"elapsed_ms\": 2.25"), std::string::npos);
}


TEST(QueryStats, ToJsonGolden) {
  QueryStats s;
  s.visited_trajectories = 42;
  s.trajectory_hits = INT64_MAX;  // counters print every digit
  s.heap_pops = -7;
  s.candidates = 1000000;
  s.phase_ns[static_cast<int>(QueryPhase::kTextualFilter)] = 1723457;
  s.phase_ns[static_cast<int>(QueryPhase::kSpatialExpansion)] =
      123456789'000'000;
  s.phase_ns[static_cast<int>(QueryPhase::kBoundMaintenance)] = 1'500'000;
  s.phase_ns[static_cast<int>(QueryPhase::kRefinement)] = 1;
  s.phase_ns[static_cast<int>(QueryPhase::kTripAssemble)] = 999'999'500;
  // Doubles keep an ostream's default rendering (printf "%g", 6 digits):
  // 1.7234567 -> 1.72346, 123456789 -> 1.23457e+08, 1e-6 -> 1e-06, and
  // 999.9995 rounds up to 1000.
  s.elapsed_ms = 1.7234567;
  const std::string head =
      R"({"visited_trajectories": 42, "trajectory_hits": 9223372036854775807, )"
      R"("settled_vertices": 0, "heap_pops": -7, "heap_pushes": 0, )"
      R"("heap_decreases": 0, "heap_stale_pops": 0, "candidates": 1000000, )"
      R"("posting_entries": 0, "schedule_steps": 0, "bound_rebuilds": 0, )"
      R"("dcache_hits": 0, "dcache_replayed": 0, "dcache_published": 0, )"
      R"("oracle_lookups": 0, "oracle_pruned_candidates": 0, "elapsed_ms": )";
  const std::string phases =
      R"(, "phase_ms": {"textual_filter": 1.72346, )"
      R"("spatial_expansion": 1.23457e+08, "bound_maintenance": 1.5, )"
      R"("scheduling": 0, "refinement": 1e-06, "trip_harvest": 0, )"
      R"("trip_assemble": 1000}})";
  EXPECT_EQ(s.ToJson(), head + "1.72346" + phases);
  s.elapsed_ms = 1e-7;
  EXPECT_EQ(s.ToJson(), head + "1e-07" + phases);
  s.elapsed_ms = 123456789;
  EXPECT_EQ(s.ToJson(), head + "1.23457e+08" + phases);

  // AppendJson writes the same object after whatever the buffer holds.
  std::string out = "prefix:";
  s.AppendJson(&out);
  EXPECT_EQ(out, "prefix:" + s.ToJson());
}

}  // namespace
}  // namespace uots
