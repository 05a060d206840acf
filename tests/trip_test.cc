// Trip-assembly engine tests (DESIGN.md §12).
//
// The invariants under test are the ones the subsystem advertises:
// assembled trips are *connected* (every connector distance equals an
// independently recomputed exact shortest-path distance, bit for bit, and
// is finite), cover every query location — in query order under the
// ordered-visit constraint, in the deterministic nearest-neighbor order
// otherwise — carry exact provenance into the trajectory store, match
// category descendants only when the query opts in, and are bitwise
// identical with and without the distance oracle. The cache key must
// separate every query knob, including location *order*.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "cache/query_key.h"
#include "core/database.h"
#include "net/dijkstra.h"
#include "net/generators.h"
#include "oracle/ch_oracle.h"
#include "test_networks.h"
#include "traj/generator.h"
#include "trip/category_tree.h"
#include "trip/planner.h"
#include "trip/workload.h"

namespace uots {
namespace {

constexpr int kVocab = 120;

GridNetworkOptions TripGrid() {
  GridNetworkOptions gopts;
  gopts.rows = 15;
  gopts.cols = 15;
  gopts.seed = 91;
  return gopts;
}

std::unique_ptr<TrajectoryDatabase> MakeGridDb(
    const GridNetworkOptions& gopts = TripGrid()) {
  auto net = MakeGridNetwork(gopts);
  EXPECT_TRUE(net.ok());
  TripGeneratorOptions topts;
  topts.num_trajectories = 150;
  topts.vocabulary_size = kVocab;
  topts.seed = 22;
  auto gen = GenerateTrips(*net, topts);
  EXPECT_TRUE(gen.ok());
  return std::make_unique<TrajectoryDatabase>(
      std::move(*net), std::move(gen->store), std::move(gen->vocabulary));
}

std::vector<TripQuery> MakeQueries(const TrajectoryDatabase& db, int n) {
  TripWorkloadOptions wopts;
  wopts.num_queries = n;
  wopts.num_locations = 4;
  wopts.k = 3;
  wopts.seed = 33;
  auto queries = MakeTripWorkload(db, wopts);
  EXPECT_TRUE(queries.ok());
  return std::move(*queries);
}

/// A straight line of `n` vertices spaced `spacing_m` apart, so vertex id
/// doubles as a position and sd(a, b) = |a - b| * spacing_m exactly.
std::unique_ptr<TrajectoryDatabase> MakeLineDb(
    int n, double spacing_m, const std::vector<Trajectory>& trips,
    size_t vocab_size = 16) {
  GraphBuilder b;
  for (int i = 0; i < n; ++i) {
    b.AddVertex(Point{static_cast<double>(i) * spacing_m, 0.0});
  }
  for (int i = 0; i + 1 < n; ++i) {
    b.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
              spacing_m);
  }
  auto net = std::move(b).Finalize();
  EXPECT_TRUE(net.ok());
  TrajectoryStore store;
  for (const auto& t : trips) {
    auto added = store.Add(t);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
  }
  return std::make_unique<TrajectoryDatabase>(
      std::move(*net), std::move(store), Vocabulary::Synthetic(vocab_size));
}

/// One trajectory walking vertices [from, to] with one sample per vertex.
Trajectory WalkTrajectory(int from, int to, std::vector<TermId> keywords) {
  Trajectory t;
  const int step = from <= to ? 1 : -1;
  int32_t time = 60;
  for (int v = from;; v += step) {
    t.samples.push_back(Sample{static_cast<VertexId>(v), time});
    time += 30;
    if (v == to) break;
  }
  t.keywords = KeywordSet(std::move(keywords));
  return t;
}

TEST(TripTest, TripsAreConnectedWithExactProvenance) {
  auto db = MakeGridDb();
  TripPlanner planner(*db);
  const auto queries = MakeQueries(*db, 8);

  int trips_checked = 0;
  for (const auto& q : queries) {
    auto r = planner.Plan(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->trips.empty());
    EXPECT_LE(r->trips.size(), static_cast<size_t>(q.k));
    for (size_t ti = 0; ti < r->trips.size(); ++ti) {
      const AssembledTrip& trip = r->trips[ti];
      // Descending by score.
      if (ti > 0) {
        EXPECT_LE(trip.score, r->trips[ti - 1].score);
      }
      // One segment per query location, in visit order.
      ASSERT_EQ(trip.segments.size(), q.locations.size());
      double total = 0.0;
      for (size_t i = 0; i < trip.segments.size(); ++i) {
        const TripSegment& s = trip.segments[i];
        // Provenance: the sample window really is a slice of the source
        // trajectory, and entry/exit are its boundary vertices.
        const Trajectory src = db->store().Materialize(s.traj);
        ASSERT_LT(s.begin, s.end);
        ASSERT_LE(s.end, src.samples.size());
        EXPECT_EQ(s.entry, src.samples[s.begin].vertex);
        EXPECT_EQ(s.exit, src.samples[s.end - 1].vertex);
        // Connectivity: every connector is finite and *bitwise* equal to an
        // independently recomputed exact shortest-path distance.
        if (i == 0) {
          EXPECT_EQ(s.connector_m, 0.0);
        } else {
          ASSERT_TRUE(std::isfinite(s.connector_m));
          const double sd = ShortestPathDistance(
              db->network(), trip.segments[i - 1].exit, s.entry);
          EXPECT_EQ(s.connector_m, sd);
        }
        total += s.connector_m;
      }
      // connector_total_m is the in-order sum — same order, same bits.
      EXPECT_EQ(trip.connector_total_m, total);
      EXPECT_EQ(trip.score, SimilarityModel::Combine(q.lambda, trip.spatial_sim,
                                                     trip.textual_sim));
      ++trips_checked;
    }
  }
  EXPECT_GT(trips_checked, 8);
}

TEST(TripTest, OrderedVisitFollowsQueryOrder) {
  // One trajectory along the whole line: each location harvests exactly one
  // candidate, anchored at the location itself, so a segment's entry vertex
  // identifies which location it covers (|entry - loc| <= window).
  auto db = MakeLineDb(60, 100.0, {WalkTrajectory(0, 59, {1, 2})});

  TripQuery q;
  q.locations = {5, 50, 20};
  q.keywords = KeywordSet{1};
  q.window = 2;
  q.segments_per_location = 4;

  TripPlanner planner(*db);

  // Unordered: deterministic nearest-neighbor tour from locations[0] visits
  // 5 -> 20 -> 50.
  q.ordered = false;
  auto nn = planner.Plan(q);
  ASSERT_TRUE(nn.ok()) << nn.status().ToString();
  ASSERT_EQ(nn->trips.size(), 1u);
  ASSERT_EQ(nn->trips[0].segments.size(), 3u);
  EXPECT_LE(std::abs(static_cast<int>(nn->trips[0].segments[0].entry) - 5), 2);
  EXPECT_LE(std::abs(static_cast<int>(nn->trips[0].segments[1].entry) - 20), 2);
  EXPECT_LE(std::abs(static_cast<int>(nn->trips[0].segments[2].entry) - 50), 2);

  // Ordered: the query order 5 -> 50 -> 20 is kept even though it backtracks.
  q.ordered = true;
  auto ordered = planner.Plan(q);
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  ASSERT_EQ(ordered->trips.size(), 1u);
  ASSERT_EQ(ordered->trips[0].segments.size(), 3u);
  EXPECT_LE(std::abs(static_cast<int>(ordered->trips[0].segments[0].entry) - 5),
            2);
  EXPECT_LE(
      std::abs(static_cast<int>(ordered->trips[0].segments[1].entry) - 50), 2);
  EXPECT_LE(
      std::abs(static_cast<int>(ordered->trips[0].segments[2].entry) - 20), 2);
  // The backtracking tour pays for it in connector distance.
  EXPECT_GT(ordered->trips[0].connector_total_m,
            nn->trips[0].connector_total_m);
}

TEST(TripTest, GapBudgetRejectsInfeasibleStitches) {
  // Two disjoint trajectories ~3km apart on the line; with one candidate
  // per location each query location snaps to its nearest trajectory, and
  // the connector between the two segments exceeds a 1km budget — assembly
  // must yield nothing rather than a disconnected "trip".
  auto db = MakeLineDb(60, 100.0, {WalkTrajectory(0, 10, {1}),
                                   WalkTrajectory(45, 59, {2})});
  TripQuery q;
  q.locations = {5, 50};
  q.keywords = KeywordSet{1};
  q.ordered = true;
  q.window = 2;
  q.segments_per_location = 1;

  TripPlanner planner(*db);
  q.gap_budget_m = 1000.0;
  auto tight = planner.Plan(q);
  ASSERT_TRUE(tight.ok());
  EXPECT_TRUE(tight->trips.empty());

  q.gap_budget_m = 0.0;  // unlimited
  auto open = planner.Plan(q);
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open->trips.size(), 1u);
  EXPECT_GT(open->trips[0].connector_total_m, 1000.0);

  q.gap_budget_m = 10000.0;  // generous budget admits the same stitch
  auto wide = planner.Plan(q);
  ASSERT_TRUE(wide.ok());
  ASSERT_EQ(wide->trips.size(), 1u);
  EXPECT_EQ(wide->trips[0], open->trips[0]);
}

TEST(TripTest, CategoryMatchingIsOptIn) {
  // The synthetic tree is parent(i) = (i-1)/8: term 9 is a child of term 1.
  // A query for the parent category matches a trajectory tagged with the
  // child only when the query opts into category expansion.
  auto db = MakeLineDb(30, 100.0, {WalkTrajectory(0, 29, {9})},
                       /*vocab_size=*/80);
  TripQuery q;
  q.locations = {15};
  q.keywords = KeywordSet{1};
  q.window = 2;

  TripPlanner planner(*db);
  q.use_categories = false;
  auto flat = planner.Plan(q);
  ASSERT_TRUE(flat.ok());
  ASSERT_EQ(flat->trips.size(), 1u);
  EXPECT_EQ(flat->trips[0].textual_sim, 0.0);

  q.use_categories = true;
  auto expanded = planner.Plan(q);
  ASSERT_TRUE(expanded.ok());
  ASSERT_EQ(expanded->trips.size(), 1u);
  EXPECT_GT(expanded->trips[0].textual_sim, 0.0);
  EXPECT_GT(expanded->trips[0].score, flat->trips[0].score);
}

TEST(TripTest, SyntheticCategoryTreeExpandsToDescendantClosure) {
  const Vocabulary vocab = Vocabulary::Synthetic(80);
  const CategoryTree tree = CategoryTree::Synthetic(vocab);
  ASSERT_EQ(tree.size(), 80u);
  EXPECT_EQ(tree.ParentOf(0), kInvalidTerm);  // root
  EXPECT_EQ(tree.ParentOf(9), 1u);
  EXPECT_EQ(tree.ParentOf(73), 9u);

  // Descendants of 1: children 9..16, grandchildren 73..79 (80-term cap).
  const KeywordSet expanded = tree.ExpandQuery(KeywordSet{1});
  EXPECT_EQ(expanded.size(), 16u);
  EXPECT_TRUE(expanded.Contains(1));
  for (TermId t = 9; t <= 16; ++t) EXPECT_TRUE(expanded.Contains(t));
  for (TermId t = 73; t <= 79; ++t) EXPECT_TRUE(expanded.Contains(t));
  EXPECT_FALSE(expanded.Contains(0));
  EXPECT_FALSE(expanded.Contains(2));
  EXPECT_FALSE(expanded.Contains(17));
}

TEST(TripTest, CategoryTreeParseAcceptsAndRejects) {
  Vocabulary vocab;
  const TermId root = vocab.Intern("root");
  const TermId a = vocab.Intern("a");
  const TermId b = vocab.Intern("b");
  vocab.Intern("c");

  auto ok = CategoryTree::Parse(
      "# taxonomy\n"
      "a root\n"
      "\n"
      "b a\n"
      "c b\n",
      vocab);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->ParentOf(a), root);
  EXPECT_EQ(ok->ParentOf(b), a);
  EXPECT_EQ(ok->ParentOf(root), kInvalidTerm);
  const KeywordSet closure = ok->ExpandQuery(KeywordSet{a});
  EXPECT_EQ(closure.size(), 3u);  // a, b, c

  // Unknown term.
  EXPECT_FALSE(CategoryTree::Parse("zzz root\n", vocab).ok());
  // Reassigned parent.
  EXPECT_FALSE(CategoryTree::Parse("a root\na b\n", vocab).ok());
  // Cycle.
  EXPECT_FALSE(CategoryTree::Parse("a b\nb a\n", vocab).ok());
}

/// Oracle-backed and Dijkstra-backed plans on `db` must agree bit for bit.
/// Every other query starts at a vertex among the oracle's top 512 ranks.
void ExpectOracleOnOffBitIdentical(TrajectoryDatabase* db) {
  auto oracle = DistanceOracle::Build(db->network());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  db->AttachOracle(
      std::make_shared<const DistanceOracle>(std::move(*oracle)));
  ASSERT_NE(db->oracle(), nullptr);

  TripPlannerOptions with;
  with.use_oracle = true;
  TripPlannerOptions without;
  without.use_oracle = false;
  TripPlanner oracle_planner(*db, with);
  TripPlanner dijkstra_planner(*db, without);

  auto queries = MakeQueries(*db, 10);
  const std::vector<VertexId> core = CoreVertices(*db->oracle());
  for (size_t i = 1; i < queries.size(); i += 2) {
    queries[i].locations[0] = core[(i * 37) % core.size()];
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto a = oracle_planner.Plan(queries[i]);
    auto b = dijkstra_planner.Plan(queries[i]);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // AssembledTrip::operator== compares every double exactly: scores,
    // similarities, and connector distances must agree to the last bit.
    EXPECT_TRUE(a->trips == b->trips) << "query " << i;
    // The oracle-backed run actually consulted it.
    EXPECT_GT(a->stats.oracle_lookups + b->stats.oracle_lookups, 0)
        << "query " << i;
  }

  // A gap budget makes the DP fill a whole exit x entry connector matrix
  // per position. Half the longest winning connector of the unlimited run
  // prunes that winner's stitch; across the queries some bounded runs must
  // still assemble trips, so the budget prunes some stitches but not all.
  int pruned = 0;
  int assembled = 0;
  for (const bool ordered : {false, true}) {
    for (size_t i = 0; i < queries.size(); ++i) {
      TripQuery q = queries[i];
      q.ordered = ordered;
      auto open = dijkstra_planner.Plan(q);
      ASSERT_TRUE(open.ok()) << open.status().ToString();
      double longest = 0.0;
      for (const AssembledTrip& trip : open->trips) {
        for (const TripSegment& s : trip.segments) {
          longest = std::max(longest, s.connector_m);
        }
      }
      if (longest == 0.0) continue;
      q.gap_budget_m = longest / 2.0;
      auto a = oracle_planner.Plan(q);
      auto b = dijkstra_planner.Plan(q);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_TRUE(a->trips == b->trips)
          << "query " << i << " ordered=" << ordered;
      EXPECT_GT(a->stats.oracle_lookups, 0) << "query " << i;
      EXPECT_EQ(b->stats.oracle_lookups, 0) << "query " << i;
      if (!(b->trips == open->trips)) ++pruned;
      if (!b->trips.empty()) ++assembled;
    }
  }
  EXPECT_GT(pruned, 0) << "no budget pruned a winning stitch";
  EXPECT_GT(assembled, 0) << "every budget pruned every stitch";
}

TEST(TripTest, OracleOnOffIsBitIdentical) {
  ExpectOracleOnOffBitIdentical(MakeGridDb().get());
  ExpectOracleOnOffBitIdentical(MakeGridDb(LargerGridOptions()).get());
}

TEST(TripTest, SharedConnectorsAreResolvedOnce) {
  // The k winners of an ordered query often share segments, hence
  // connectors: each distinct (exit, entry) pair costs one oracle lookup,
  // not one per trip, and sharing must not change a bit of the answer.
  auto db = MakeGridDb();
  auto oracle = DistanceOracle::Build(db->network());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  db->AttachOracle(
      std::make_shared<const DistanceOracle>(std::move(*oracle)));
  TripPlannerOptions without;
  without.use_oracle = false;
  TripPlanner oracle_planner(*db);
  TripPlanner dijkstra_planner(*db, without);

  int shared = 0;
  for (TripQuery q : MakeQueries(*db, 12)) {
    q.ordered = true;  // no visit-order matrix: connectors are all lookups
    auto a = oracle_planner.Plan(q);
    auto b = dijkstra_planner.Plan(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(a->trips == b->trips);

    std::vector<std::pair<VertexId, VertexId>> pairs;
    for (const AssembledTrip& trip : a->trips) {
      for (size_t p = 1; p < trip.segments.size(); ++p) {
        pairs.emplace_back(trip.segments[p - 1].exit, trip.segments[p].entry);
      }
    }
    const size_t connectors = pairs.size();
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    EXPECT_EQ(a->stats.oracle_lookups, static_cast<int64_t>(pairs.size()));
    if (pairs.size() < connectors) ++shared;
  }
  EXPECT_GT(shared, 0) << "no query's winners shared a connector";
}

TEST(TripTest, CacheKeySeparatesEveryQueryKnob) {
  TripQuery base;
  base.locations = {7, 3, 11};
  base.keywords = KeywordSet{4, 9};
  constexpr uint64_t kFp = 0x5eedf00dULL;
  const std::string key = EncodeTripCacheKey(base, kFp);

  // Same query, same bits.
  EXPECT_EQ(EncodeTripCacheKey(base, kFp), key);

  std::vector<TripQuery> variants;
  {
    TripQuery v = base;
    v.ordered = true;
    variants.push_back(v);
  }
  {
    TripQuery v = base;
    v.use_categories = true;
    variants.push_back(v);
  }
  {
    TripQuery v = base;
    v.gap_budget_m = 500.0;
    variants.push_back(v);
  }
  {
    TripQuery v = base;
    v.lambda = 0.25;
    variants.push_back(v);
  }
  {
    TripQuery v = base;
    v.k = 2;
    variants.push_back(v);
  }
  {
    TripQuery v = base;
    v.segments_per_location = 16;
    variants.push_back(v);
  }
  {
    TripQuery v = base;
    v.window = 8;
    variants.push_back(v);
  }
  {
    // Location *order* is part of the key: the nearest-neighbor tour starts
    // at locations[0], so permutations are distinct queries.
    TripQuery v = base;
    v.locations = {3, 7, 11};
    variants.push_back(v);
  }
  {
    TripQuery v = base;
    v.keywords = KeywordSet{4, 10};
    variants.push_back(v);
  }
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(EncodeTripCacheKey(variants[i], kFp), key) << "variant " << i;
    for (size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(EncodeTripCacheKey(variants[i], kFp),
                EncodeTripCacheKey(variants[j], kFp))
          << "variants " << i << " vs " << j;
    }
  }
  // A live ingest bumps the fingerprint salt and with it every key.
  EXPECT_NE(EncodeTripCacheKey(base, kFp + 1), key);
}

TEST(TripTest, ValidateRejectsMalformedQueries) {
  TripQuery q;
  q.locations = {1, 2};
  q.keywords = KeywordSet{0};
  EXPECT_TRUE(ValidateTripQuery(q, 100).ok());

  TripQuery bad = q;
  bad.locations.clear();
  EXPECT_FALSE(ValidateTripQuery(bad, 100).ok());
  bad = q;
  bad.locations.assign(kMaxTripLocations + 1, 1);
  EXPECT_FALSE(ValidateTripQuery(bad, 100).ok());
  bad = q;
  bad.locations = {1, 100};
  EXPECT_FALSE(ValidateTripQuery(bad, 100).ok());
  bad = q;
  bad.lambda = 1.5;
  EXPECT_FALSE(ValidateTripQuery(bad, 100).ok());
  bad = q;
  bad.k = 0;
  EXPECT_FALSE(ValidateTripQuery(bad, 100).ok());
  bad = q;
  bad.segments_per_location = 0;
  EXPECT_FALSE(ValidateTripQuery(bad, 100).ok());
  bad = q;
  bad.window = -1;
  EXPECT_FALSE(ValidateTripQuery(bad, 100).ok());
  bad = q;
  bad.gap_budget_m = -1.0;
  EXPECT_FALSE(ValidateTripQuery(bad, 100).ok());
}

}  // namespace
}  // namespace uots
