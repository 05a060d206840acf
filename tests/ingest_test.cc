// Live-ingest tests (DESIGN.md §11): the delta layer must be
// indistinguishable — bit for bit — from tearing the index down and
// rebuilding it with the new trips in the base, across every engine;
// batches must be atomic with contiguous id assignment; stale cache
// generations must be unreachable and reclaimable; queries must stay
// valid while batches land concurrently; and a compaction must round-trip
// through the on-disk snapshot validator and swap in live.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/workload.h"
#include "ingest/ingestor.h"
#include "net/generators.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "storage/resolver.h"
#include "traj/generator.h"

namespace uots {
namespace {

RoadNetwork MakeNet() {
  GridNetworkOptions opts;
  opts.rows = 15;
  opts.cols = 15;
  opts.seed = 91;
  auto net = MakeGridNetwork(opts);
  EXPECT_TRUE(net.ok());
  return std::move(*net);
}

constexpr int kVocab = 120;

/// Deterministic row-form trips over `net`, terms in [0, kVocab).
std::vector<Trajectory> MakeTrips(const RoadNetwork& net, int n,
                                  uint64_t seed) {
  TripGeneratorOptions opts;
  opts.num_trajectories = n;
  opts.vocabulary_size = kVocab;
  opts.seed = seed;
  auto gen = GenerateTrips(net, opts);
  EXPECT_TRUE(gen.ok());
  std::vector<Trajectory> rows;
  rows.reserve(gen->store.size());
  for (size_t i = 0; i < gen->store.size(); ++i) {
    rows.push_back(gen->store.Materialize(static_cast<TrajId>(i)));
  }
  return rows;
}

std::unique_ptr<TrajectoryDatabase> MakeBaseDb(
    const RoadNetwork& net, const SimilarityOptions& sim = {}) {
  TripGeneratorOptions opts;
  opts.num_trajectories = 120;
  opts.vocabulary_size = kVocab;
  opts.seed = 22;
  auto gen = GenerateTrips(net, opts);
  EXPECT_TRUE(gen.ok());
  return std::make_unique<TrajectoryDatabase>(
      net, std::move(gen->store), std::move(gen->vocabulary), sim);
}

/// Cold rebuild: a fresh database whose base contains every row of `db`
/// plus `extra`, indexed from scratch. This is the ground truth the delta
/// overlay must match exactly.
std::unique_ptr<TrajectoryDatabase> Rebuild(
    const TrajectoryDatabase& db, const std::vector<Trajectory>& extra) {
  TrajectoryStore merged;
  for (size_t i = 0; i < db.store().size(); ++i) {
    auto added = merged.Add(db.store().Materialize(static_cast<TrajId>(i)));
    EXPECT_TRUE(added.ok());
  }
  for (const auto& t : extra) {
    auto added = merged.Add(t);
    EXPECT_TRUE(added.ok());
  }
  SimilarityOptions sim;
  sim.sigma_m = db.model().sigma_m();
  sim.sigma_s = db.model().sigma_s();
  sim.measure = db.model().textual().measure();
  return std::make_unique<TrajectoryDatabase>(db.network(), std::move(merged),
                                              db.vocabulary(), sim);
}

std::vector<UotsQuery> MakeQueries(const TrajectoryDatabase& db, int n) {
  WorkloadOptions wopts;
  wopts.num_queries = n;
  wopts.num_locations = 4;
  wopts.k = 6;
  wopts.seed = 33;
  auto queries = MakeWorkload(db, wopts);
  EXPECT_TRUE(queries.ok());
  return std::move(*queries);
}

void ExpectIdentical(const SearchResult& a, const SearchResult& b,
                     const char* what, size_t qi) {
  ASSERT_EQ(a.items.size(), b.items.size()) << what << " query " << qi;
  for (size_t j = 0; j < a.items.size(); ++j) {
    EXPECT_EQ(a.items[j].id, b.items[j].id) << what << " query " << qi;
    // Bitwise double equality, deliberately: "ingest then query" and
    // "rebuild then query" must be the same computation.
    EXPECT_EQ(a.items[j].score, b.items[j].score) << what << " query " << qi;
    EXPECT_EQ(a.items[j].spatial_sim, b.items[j].spatial_sim)
        << what << " query " << qi;
    EXPECT_EQ(a.items[j].textual_sim, b.items[j].textual_sim)
        << what << " query " << qi;
  }
}

TEST(IngestTest, DeltaMatchesColdRebuildAcrossAllSixEngines) {
  const RoadNetwork net = MakeNet();
  const std::vector<Trajectory> extra = MakeTrips(net, 40, 77);
  // Every counting SimT measure: the delta and the base index score
  // through one formula, and each measure must match the rebuild.
  for (TextualMeasure measure :
       {TextualMeasure::kJaccard, TextualMeasure::kDice,
        TextualMeasure::kOverlap, TextualMeasure::kCosine}) {
    SCOPED_TRACE(ToString(measure));
    SimilarityOptions sim;
    sim.measure = measure;
    auto base = MakeBaseDb(net, sim);

    Ingestor ingestor(base.get());
    auto applied = ingestor.Apply(extra);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->first_id, static_cast<TrajId>(120));
    EXPECT_EQ(applied->accepted, extra.size());

    auto rebuilt = Rebuild(*base, extra);
    // The workload is drawn over the rebuilt database so ingested trips are
    // eligible for (and do appear in) top-k answers.
    const auto queries = MakeQueries(*rebuilt, 10);

    for (AlgorithmKind kind :
         {AlgorithmKind::kBruteForce, AlgorithmKind::kTextFirst,
          AlgorithmKind::kUots, AlgorithmKind::kUotsNoHeuristic,
          AlgorithmKind::kUotsSequential, AlgorithmKind::kEuclidean}) {
      QueryOptions opts;
      opts.algorithm = kind;
      for (size_t i = 0; i < queries.size(); ++i) {
        auto via_delta = RunQuery(*base, queries[i], opts);
        auto via_rebuild = RunQuery(*rebuilt, queries[i], opts);
        ASSERT_TRUE(via_delta.ok()) << via_delta.status().ToString();
        ASSERT_TRUE(via_rebuild.ok()) << via_rebuild.status().ToString();
        ExpectIdentical(*via_delta, *via_rebuild, ToString(kind), i);
      }
    }
  }
}

TEST(IngestTest, AssignsContiguousIdsAboveBaseAcrossBatches) {
  const RoadNetwork net = MakeNet();
  auto base = MakeBaseDb(net);
  const std::vector<Trajectory> extra = MakeTrips(net, 10, 55);

  Ingestor ingestor(base.get());
  EXPECT_EQ(ingestor.generation(), 0u);
  EXPECT_EQ(ingestor.delta_trajectories(), 0u);
  EXPECT_EQ(ingestor.delta_bytes(), 0u);

  auto first = ingestor.Apply({extra.begin(), extra.begin() + 6});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->first_id, static_cast<TrajId>(120));
  EXPECT_EQ(first->accepted, 6u);
  EXPECT_EQ(first->generation, 1u);

  auto second = ingestor.Apply({extra.begin() + 6, extra.end()});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->first_id, static_cast<TrajId>(126));
  EXPECT_EQ(second->accepted, 4u);
  EXPECT_EQ(second->generation, 2u);

  EXPECT_EQ(ingestor.delta_trajectories(), 10u);
  EXPECT_GT(ingestor.delta_bytes(), 0u);
  EXPECT_EQ(base->delta_generation(), 2u);
}

TEST(IngestTest, RejectsInvalidBatchesAtomically) {
  const RoadNetwork net = MakeNet();
  auto base = MakeBaseDb(net);
  const std::vector<Trajectory> good = MakeTrips(net, 4, 55);
  Ingestor ingestor(base.get());

  const auto expect_rejected = [&](std::vector<Trajectory> batch) {
    auto r = ingestor.Apply(std::move(batch));
    EXPECT_FALSE(r.ok());
    // Atomic: a refused batch leaves no trace in the delta.
    EXPECT_EQ(ingestor.delta_trajectories(), 0u);
    EXPECT_EQ(ingestor.generation(), 0u);
  };

  // No samples.
  expect_rejected({Trajectory{}});
  // Timestamp out of the day range.
  {
    Trajectory t = good[0];
    t.samples[0].time_s = -5;
    expect_rejected({t});
  }
  // Timestamps not monotone.
  {
    Trajectory t = good[0];
    ASSERT_GE(t.samples.size(), 2u);
    std::swap(t.samples.front().time_s, t.samples.back().time_s);
    t.samples.front().time_s = kSecondsPerDay - 1;
    expect_rejected({t});
  }
  // Vertex outside the network.
  {
    Trajectory t = good[0];
    t.samples[0].vertex = static_cast<VertexId>(net.NumVertices());
    expect_rejected({t});
  }
  // Term outside the vocabulary.
  {
    Trajectory t = good[0];
    t.keywords = KeywordSet{static_cast<TermId>(kVocab)};
    expect_rejected({t});
  }
  // Duplicate content within one batch.
  expect_rejected({good[0], good[0]});
  // One bad trip poisons the whole batch — the good ones are NOT ingested.
  {
    Trajectory bad = good[1];
    bad.samples.clear();
    expect_rejected({good[0], bad});
  }

  // The same good trips are still ingestible afterwards...
  auto ok = ingestor.Apply(good);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->accepted, 4u);
  // ...and a resubmission (client retry after a lost response) is refused.
  auto dup = ingestor.Apply({good[2]});
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(ingestor.delta_trajectories(), 4u);
  // Rejections tally trips, not batches: five 1-trip batches, two 2-trip
  // batches, and the final 1-trip resubmission.
  EXPECT_EQ(ingestor.rejected_total(), 10);
}

TEST(IngestTest, RejectsWeightedTextualModel) {
  const RoadNetwork net = MakeNet();
  SimilarityOptions sim;
  sim.measure = TextualMeasure::kWeighted;
  auto base = MakeBaseDb(net, sim);
  Ingestor ingestor(base.get());
  // idf weights depend on global document frequencies, so a delta overlay
  // cannot be bit-identical to a rebuild — ingest must refuse outright.
  auto r = ingestor.Apply(MakeTrips(net, 2, 55));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(ingestor.delta_trajectories(), 0u);
}

TEST(IngestTest, StaleCacheGenerationIsUnreachableAndReclaimable) {
  const RoadNetwork net = MakeNet();
  auto base = MakeBaseDb(net);
  ServiceOptions sopts;
  sopts.threads = 2;
  sopts.cache_max_entries = 64;
  UotsService service(*base, sopts);
  const auto queries = MakeQueries(*base, 1);

  // Miss, compute, populate.
  std::string key;
  EXPECT_EQ(service.CacheLookup(queries[0], AlgorithmKind::kUots, &key),
            nullptr);
  ASSERT_FALSE(key.empty());
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  ASSERT_TRUE(service.TryExecute(queries[0], AlgorithmKind::kUots, nullptr,
                                 [&](ExecutionResult r) {
                                   EXPECT_TRUE(r.status.ok());
                                   std::lock_guard<std::mutex> lock(mu);
                                   finished = true;
                                   cv.notify_one();
                                 },
                                 key));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return finished; });
  }
  std::string key2;
  EXPECT_NE(service.CacheLookup(queries[0], AlgorithmKind::kUots, &key2),
            nullptr);

  // Ingest bumps the live fingerprint: the identical query now derives a
  // different key, so the pre-ingest entry can never be served again.
  Ingestor ingestor(base.get());
  auto applied = ingestor.Apply(MakeTrips(net, 5, 77));
  ASSERT_TRUE(applied.ok());
  std::string key3;
  EXPECT_EQ(service.CacheLookup(queries[0], AlgorithmKind::kUots, &key3),
            nullptr);
  EXPECT_NE(key3, key);

  // The stale entry still holds memory until the explicit reclaim the
  // server issues on every ingest apply.
  ResultCache* cache = service.result_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->stats().entries, 1);
  cache->InvalidateGeneration();
  const ResultCache::Stats after = cache->stats();
  EXPECT_EQ(after.entries, 0);
  EXPECT_EQ(after.bytes, 0);
  EXPECT_EQ(after.invalidations, 1);
  EXPECT_GE(after.invalidated_entries, 1);
}

TEST(IngestTest, QueriesStayValidDuringSustainedIngest) {
  const RoadNetwork net = MakeNet();
  auto base = MakeBaseDb(net);
  const auto queries = MakeQueries(*base, 6);
  // One pool of distinct trips, split into batches (distinct content so
  // the duplicate filter never fires mid-hammer).
  const std::vector<Trajectory> pool = MakeTrips(net, 64, 901);

  Ingestor ingestor(base.get());
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int64_t> executed{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      QueryOptions opts;
      opts.algorithm =
          t == 0 ? AlgorithmKind::kUots
                 : (t == 1 ? AlgorithmKind::kBruteForce
                           : AlgorithmKind::kTextFirst);
      size_t i = 0;
      while (!done.load(std::memory_order_relaxed)) {
        auto r = RunQuery(*base, queries[i++ % queries.size()], opts);
        if (!r.ok()) {
          ++failures;
          break;
        }
        ++executed;
      }
    });
  }

  // The single writer, as on the server's reactor thread.
  for (size_t off = 0; off < pool.size(); off += 4) {
    auto r = ingestor.Apply(
        {pool.begin() + static_cast<ptrdiff_t>(off),
         pool.begin() + static_cast<ptrdiff_t>(off + 4)});
    if (!r.ok()) ++failures;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(executed.load(), 0);
  EXPECT_EQ(ingestor.delta_trajectories(), pool.size());

  // Settled state is still exactly the cold rebuild.
  auto rebuilt = Rebuild(*base, pool);
  QueryOptions opts;
  opts.algorithm = AlgorithmKind::kUots;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto a = RunQuery(*base, queries[i], opts);
    auto b = RunQuery(*rebuilt, queries[i], opts);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectIdentical(*a, *b, "post-hammer", i);
  }
}

TEST(IngestTest, CompactionRoundTripsThroughValidatedSnapshot) {
  const RoadNetwork net = MakeNet();
  TripGeneratorOptions gopts;
  gopts.num_trajectories = 120;
  gopts.vocabulary_size = kVocab;
  gopts.seed = 22;
  auto gen = GenerateTrips(net, gopts);
  ASSERT_TRUE(gen.ok());
  auto owned = std::make_shared<TrajectoryDatabase>(
      net, std::move(gen->store), std::move(gen->vocabulary));
  const std::vector<Trajectory> extra = MakeTrips(net, 30, 77);

  const std::string snap_path =
      ::testing::TempDir() + "/uots_ingest_compact.snap";
  ServerOptions opts;
  opts.port = 0;
  opts.admin.port = 0;  // ephemeral admin plane for POST /compact
  opts.compact_snapshot_path = snap_path;
  UotsServer server(std::shared_ptr<const TrajectoryDatabase>(owned), opts);
  ASSERT_TRUE(server.Start().ok());
  std::thread loop([&] { server.Run(); });

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  IngestRequest ireq;
  ireq.id = 1;
  ireq.trajectories = extra;
  auto iresp = client.Call(ireq);
  ASSERT_TRUE(iresp.ok()) << iresp.status().ToString();
  ASSERT_TRUE(iresp->ok()) << iresp->error;
  EXPECT_EQ(iresp->first_traj, 120);
  EXPECT_EQ(iresp->accepted, 30);

  // Remember pre-compaction answers (served through the delta overlay).
  auto rebuilt = Rebuild(*owned, extra);
  const auto queries = MakeQueries(*rebuilt, 6);
  std::vector<QueryResponse> before;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest req;
    req.id = static_cast<int64_t>(i);
    req.query = queries[i];
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok() && resp->ok());
    before.push_back(std::move(*resp));
  }

  auto post = HttpFetch("127.0.0.1", server.admin_port(), "/compact", "POST");
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post->status, 202);

  // Wait for the background fold + live swap (statusz is loop-published,
  // so it is the race-free way to observe completion from this thread).
  bool compacted = false;
  for (int i = 0; i < 200 && !compacted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto statusz =
        HttpFetch("127.0.0.1", server.admin_port(), "/statusz", "GET");
    ASSERT_TRUE(statusz.ok());
    compacted =
        statusz->body.find("\"compacting\":false") != std::string::npos &&
        statusz->body.find("\"compactions\":1") != std::string::npos;
  }
  ASSERT_TRUE(compacted) << "compaction did not finish in 10s";

  // The written snapshot passes full validation (checksums on) and holds
  // exactly base + delta.
  auto loaded = storage::LoadDatabaseFromPath(snap_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->db->store().size(), 150u);

  // The swapped-in server answers every query identically to before the
  // compaction AND to the validated on-disk reload.
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest req;
    req.id = 100 + static_cast<int64_t>(i);
    req.query = queries[i];
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok() && resp->ok());
    ASSERT_EQ(resp->results.size(), before[i].results.size());
    for (size_t j = 0; j < resp->results.size(); ++j) {
      EXPECT_EQ(resp->results[j].id, before[i].results[j].id);
      EXPECT_EQ(resp->results[j].score, before[i].results[j].score);
    }
    QueryOptions lopts;
    auto local = RunQuery(*loaded->db, queries[i], lopts);
    ASSERT_TRUE(local.ok());
    ASSERT_EQ(resp->results.size(), local->items.size());
    for (size_t j = 0; j < local->items.size(); ++j) {
      EXPECT_EQ(resp->results[j].id, local->items[j].id);
      EXPECT_EQ(resp->results[j].score, local->items[j].score);
      EXPECT_EQ(resp->results[j].spatial_sim, local->items[j].spatial_sim);
      EXPECT_EQ(resp->results[j].textual_sim, local->items[j].textual_sim);
    }
  }

  server.RequestShutdown();
  loop.join();
  std::remove(snap_path.c_str());
}

}  // namespace
}  // namespace uots
