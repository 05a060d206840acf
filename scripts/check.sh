#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite in
# Release, again under ASan+UBSan, and once more with the span tracer
# compiled out (-DUOTS_TRACE=OFF); then a ThreadSanitizer pass over the
# tests that hand work between threads. Run from the repo root:
#
#   scripts/check.sh            # all four presets
#   scripts/check.sh release    # just the fast one
#   scripts/check.sh asan       # just the sanitizer pass
#   scripts/check.sh trace-off  # just the tracer-compiled-out pass
#   scripts/check.sh tsan       # just the ThreadSanitizer pass
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 2)
presets=("$@")
if [[ $# -eq 0 ]]; then presets=(release asan trace-off tsan); fi

declare -A builddir=([release]=build [asan]=build-asan
                     [trace-off]=build-trace-off [tsan]=build-tsan)
# The ThreadSanitizer pass: every test that runs more than one thread. The
# server, trip-server, cache and ingest tests race worker completions
# against the reactor, cache hits against inserts, and compaction swaps
# against live queries; the batch, thread-pool, trace, util, fuzz and
# threshold-pairs tests run engines and spans on pool workers; the
# inverted-index test holds the threaded regression test for the shared
# keyword-scoring scratch race; in the oracle test four queriers race to
# build one oracle's core distance table. The rest of the suite is
# single-threaded.
tsan_tests=(uots_server_integration_test uots_trip_server_test
            uots_cache_test uots_ingest_test uots_batch_abort_test
            uots_batch_workload_test uots_inverted_index_test
            uots_thread_pool_test uots_trace_test uots_util_test
            uots_fuzz_consistency_test uots_threshold_pairs_test
            uots_oracle_test)
# Output checks read the whole stream (`grep ... >/dev/null`, not `grep -q`):
# under pipefail, `grep -q` exiting at its first match makes a writer still
# sending (curl) fail with EPIPE, which fails the step although the match
# was found.
ordering_tests='*PipelinedRequestsAnswerInOrder:*CacheHitWaits*'

for preset in "${presets[@]}"; do
  echo "==> preset: ${preset}"
  if [[ "${preset}" == "release" ]]; then
    # One socket layer: src/server/socket.{h,cc} makes every socket call in
    # src/ and apps/, so a socket syscall anywhere else fails the check.
    # (A bare `! git grep` would not fail the script under set -e.)
    echo "==> release: socket calls only in src/server/socket.*"
    if git grep -nE \
        '::(socket|bind|listen|accept4?|connect|send|recv|setsockopt|fcntl)\(' \
        -- src apps ':!src/server/socket.*'; then
      echo "socket syscalls outside src/server/socket.{h,cc}" >&2
      exit 1
    fi
  fi
  cmake --preset "${preset}"
  if [[ "${preset}" == "tsan" ]]; then
    # Each binary runs directly, with full output; TSan makes a run that
    # reported a race exit nonzero. The ordering tests then repeat, since
    # they race a worker's completion against the reactor's cache hits.
    cmake --build --preset tsan -j "${jobs}" --target "${tsan_tests[@]}"
    for t in "${tsan_tests[@]}"; do
      echo "==> tsan: ${t}"
      "${builddir[tsan]}/tests/${t}"
    done
    echo "==> tsan: response ordering x50"
    "${builddir[tsan]}/tests/uots_server_integration_test" \
      --gtest_filter="${ordering_tests}" --gtest_repeat=50 --gtest_brief=1
    continue
  fi
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
  if [[ "${preset}" == "asan" ]]; then
    # The loopback server test drives real sockets through the epoll loop,
    # timer heap, and cross-thread completion path; run it again explicitly
    # under the sanitizers with full output so a race or leak is attributed
    # to the serving layer rather than buried in the suite summary.
    echo "==> asan: loopback server integration"
    ctest --preset "${preset}" -R uots_server_integration_test \
      --output-on-failure
    # Cache drill: the concurrent Zipf hammer races result-cache hits,
    # inserts, evictions, and tier-2 prefix publication across worker
    # threads — exactly the shared-state paths the sanitizers should sweep.
    echo "==> asan: cross-query cache hammer"
    ctest --preset "${preset}" -R "uots_cache_test|uots_batch_abort_test" \
      --output-on-failure
  fi
  if [[ "${preset}" == "release" || "${preset}" == "asan" ]]; then
    # Response-ordering repeats: pipelined replies on one connection must
    # leave in request order however workers and the reactor's cache hits
    # race. One suite run can pass by luck, so repeat the two ordering
    # tests until an ordering regression cannot hide as a rare flake.
    echo "==> ${preset}: response ordering x100"
    "${builddir[${preset}]}/tests/uots_server_integration_test" \
      --gtest_filter="${ordering_tests}" --gtest_repeat=100 --gtest_brief=1
    # Snapshot drill: end-to-end through the real tool — build a small
    # snapshot, check it verifies, and run the corruption/round-trip suite
    # with full output. Under asan this sweeps the mmap'd validation paths
    # for out-of-bounds reads on crafted input.
    echo "==> ${preset}: snapshot build + verify drill"
    snap="${builddir[${preset}]}/check-drill.snap"
    "${builddir[${preset}]}/apps/uots_snapshot" build --out="${snap}" \
      --gen-rows=20 --gen-cols=20 --gen-trips=400
    "${builddir[${preset}]}/apps/uots_snapshot" verify "${snap}"
    # Flag drill: an out-of-range port or ms value must stop the server
    # with exit 2 before it serves (it used to wrap the port to 16 bits or
    # overflow the ms -> ns conversion).
    echo "==> ${preset}: out-of-range server flags"
    for bad in --port=70000 --default-deadline-ms=1e13; do
      rc=0
      timeout 5 "${builddir[${preset}]}/apps/uots_server" \
        --dataset="${snap}" "${bad}" >/dev/null 2>&1 || rc=$?
      echo "uots_server ${bad}: exit ${rc}"
      [[ "${rc}" == 2 ]]
    done
    # The client and the snapshot tool parse numbers the same way: a port
    # past 65535 or a count that is not a number exits 2 before any work
    # (the client used to connect to port 4464, and the tool to build with
    # --trajectories=abc read as 0).
    rc=0
    timeout 60 "${builddir[${preset}]}/apps/uots_client" --port=70000 \
      --num-queries=1 --trajectories=1500 --json-out= >/dev/null 2>&1 || rc=$?
    echo "uots_client --port=70000: exit ${rc}"
    [[ "${rc}" == 2 ]]
    rc=0
    "${builddir[${preset}]}/apps/uots_snapshot" build --gen-rows=5 \
      --gen-cols=5 --gen-trips=40 --trajectories=abc \
      --out="${builddir[${preset}]}/check-bad-flag.snap" >/dev/null 2>&1 \
      || rc=$?
    echo "uots_snapshot build --trajectories=abc: exit ${rc}"
    [[ "${rc}" == 2 ]]
    rm -f "${snap}" "${builddir[${preset}]}/check-bad-flag.snap"
    ctest --preset "${preset}" -R uots_snapshot_test --output-on-failure
    # Oracle drill: contract a network, bake the CH oracle into a v2
    # snapshot, check the checksum sweep and structural validation accept
    # it, and confirm inspect reports the oracle sections. The randomized
    # oracle-vs-Dijkstra exactness suite then runs with full output; under
    # asan this sweeps the contraction, rank-space CSR assembly, and the
    # upward-sweep query kernel.
    echo "==> ${preset}: distance-oracle drill"
    osnap="${builddir[${preset}]}/check-oracle.snap"
    "${builddir[${preset}]}/apps/uots_snapshot" build --out="${osnap}" \
      --gen-rows=24 --gen-cols=24 --gen-trips=600 --oracle
    "${builddir[${preset}]}/apps/uots_snapshot" verify "${osnap}"
    "${builddir[${preset}]}/apps/uots_snapshot" inspect "${osnap}" \
      | grep "distance oracle" >/dev/null
    rm -f "${osnap}"
    ctest --preset "${preset}" -R uots_oracle_test --output-on-failure
    if [[ "${preset}" == "release" ]]; then
      # Oracle exactness at bench scale: bench_oracle exits nonzero on any
      # kernel-vs-Dijkstra distance or oracle-on/off answer mismatch, and
      # bench_trip on any oracle-vs-Dijkstra trip connector mismatch.
      # Release only: they are benches, too slow under the sanitizers.
      echo "==> release: oracle and trip bench gates"
      # The 126x126 grid's core table covers 3% of its 15,876 vertices, so
      # its lookups sweep far below the core before joining through it.
      "${builddir[release]}/bench/bench_oracle" --sizes=40,126 --queries=8 \
        --pairs=2000 --json-out="${builddir[release]}/check-oracle.json"
      "${builddir[release]}/bench/bench_trip" --trajectories=2000 \
        --queries=24 --locations=2,4 \
        --json-out="${builddir[release]}/check-bench-trip.json"
      rm -f "${builddir[release]}/check-oracle.json" \
        "${builddir[release]}/check-bench-trip.json"
      # Cold dataset cache drill: two builds of one city started 2 s apart
      # on the same empty cache dir must load the same dataset. Cache files
      # appear whole (temp name + rename), so the second build finds the
      # finished snapshot or trips file, or no cache at all — never a
      # half-written file.
      echo "==> release: cold dataset cache drill"
      cold="$(mktemp -d)"
      UOTS_BENCH_CACHE_DIR="${cold}" "${builddir[release]}/apps/uots_snapshot" \
        build --city=BRN --trajectories=1500 --out="${cold}/first.snap" \
        > "${cold}/first.txt" &
      first_pid=$!
      sleep 2
      UOTS_BENCH_CACHE_DIR="${cold}" "${builddir[release]}/apps/uots_snapshot" \
        build --city=BRN --trajectories=1500 --out="${cold}/second.snap" \
        > "${cold}/second.txt"
      wait "${first_pid}"
      fp_first=$(grep -o "fingerprint [0-9a-f]*" "${cold}/first.txt")
      fp_second=$(grep -o "fingerprint [0-9a-f]*" "${cold}/second.txt")
      echo "first build: ${fp_first}; second build: ${fp_second}"
      [[ -n "${fp_first}" && "${fp_first}" == "${fp_second}" ]]
      # A dataset must not depend on the cache's history either: a second
      # cardinality built in that dir (trips cached, no snapshot of its own)
      # must equal the same cardinality built in another fresh dir.
      other="$(mktemp -d)"
      UOTS_BENCH_CACHE_DIR="${cold}" "${builddir[release]}/apps/uots_snapshot" \
        build --city=BRN --trajectories=3000 --out="${cold}/warm.snap" \
        > "${cold}/warm.txt"
      UOTS_BENCH_CACHE_DIR="${other}" "${builddir[release]}/apps/uots_snapshot" \
        build --city=BRN --trajectories=3000 --out="${other}/fresh.snap" \
        > "${other}/fresh.txt"
      fp_warm=$(grep -o "fingerprint [0-9a-f]*" "${cold}/warm.txt")
      fp_fresh=$(grep -o "fingerprint [0-9a-f]*" "${other}/fresh.txt")
      echo "after another n: ${fp_warm}; fresh cache: ${fp_fresh}"
      [[ -n "${fp_warm}" && "${fp_warm}" == "${fp_fresh}" ]]
      rm -rf "${cold}" "${other}"
      # Hierarchy pin at benchmark scale: the BRN-15k oracle snapshot the
      # wire benchmark serves, built from an empty dataset cache, must hold
      # the pinned dataset and the pinned hierarchy sections. A contraction
      # change that moves the order or any shortcut moves a section CRC.
      echo "==> release: BRN-15k hierarchy pin"
      pin="$(mktemp -d)"
      UOTS_BENCH_CACHE_DIR="${pin}" "${builddir[release]}/apps/uots_snapshot" \
        build --city=BRN --trajectories=15000 --oracle --out="${pin}/brn.snap"
      "${builddir[release]}/apps/uots_snapshot" inspect "${pin}/brn.snap" \
        > "${pin}/inspect.txt"
      grep -E "dataset fingerprint|^ *oracle\." "${pin}/inspect.txt"
      grep "dataset fingerprint c2bc0049" "${pin}/inspect.txt" >/dev/null
      grep -E "^ *oracle\.ranks .* f08790cf$" "${pin}/inspect.txt" >/dev/null
      grep -E "^ *oracle\.up_offsets .* c001e645$" "${pin}/inspect.txt" \
        >/dev/null
      grep -E "^ *oracle\.up_edges .* 0cede5e3$" "${pin}/inspect.txt" >/dev/null
      # Oracle on/off over the wire at that scale: serve the pinned oracle
      # snapshot and verify its answers bit for bit against an oracle-less
      # engine over a plain snapshot of the same dataset (same cache dir).
      UOTS_BENCH_CACHE_DIR="${pin}" "${builddir[release]}/apps/uots_snapshot" \
        build --city=BRN --trajectories=15000 --out="${pin}/plain.snap"
      "${builddir[release]}/apps/uots_server" --dataset="${pin}/brn.snap" \
        --port=7793 &
      pin_pid=$!
      sleep 1
      "${builddir[release]}/apps/uots_client" --port=7793 \
        --dataset="${pin}/plain.snap" --verify
      kill -TERM "${pin_pid}"
      wait "${pin_pid}"
      rm -rf "${pin}"
    fi
    # Admin-plane drill: serve a generated city with the admin listener on,
    # drive a closed loop that also scrapes server-side quantiles, then hit
    # every endpoint and check the exported metric families by name. Under
    # asan this sweeps the HTTP parser, the slow-query ring, and the
    # scrape-time render path against live traffic. SIGTERM at the end
    # proves the drain still exits cleanly with the admin plane attached.
    # (Plain backgrounding, no compound command: $! must be the server.)
    echo "==> ${preset}: admin plane smoke"
    if [[ "${preset}" == "release" ]]; then qport=7781 aport=7785
    else qport=7782 aport=7786; fi
    "${builddir[${preset}]}/apps/uots_server" --city=BRN --port="${qport}" \
      --trajectories=1500 --cache-max-entries=256 --admin-port="${aport}" &
    server_pid=$!
    sleep 1
    "${builddir[${preset}]}/apps/uots_client" --port="${qport}" \
      --trajectories=1500 --zipf=0.99 --connections=2 --requests=300 \
      --scrape-admin="${aport}"
    admin="http://127.0.0.1:${aport}"
    curl -fsS "${admin}/healthz" | grep "ok" >/dev/null
    curl -fsS "${admin}/metrics" | grep "^uots_server_requests_total 3" >/dev/null
    curl -fsS "${admin}/metrics" \
      | grep "uots_server_request_latency_seconds_bucket" >/dev/null
    curl -fsS "${admin}/statusz" | grep '"fingerprint"' >/dev/null
    curl -fsS -X POST "${admin}/tracing?sample=4" \
      | grep '"sample_every":4' >/dev/null
    curl -fsS "${admin}/slowqueries" | grep '"request_id"' >/dev/null
    kill -TERM "${server_pid}"
    wait "${server_pid}"
    # Live-ingest drill: serve with a compaction path, wire-ingest fresh
    # trips, verify the served answers bit-for-bit against a local cold
    # rebuild (base + ingested), fold the delta through POST /compact, and
    # re-verify against the compacted snapshot itself — the file the fold
    # wrote must both pass the standalone validator and describe exactly
    # what the swapped-in server is serving. Under asan this sweeps the
    # delta publication, the reactor-side apply, and the background
    # merge/swap against live queries.
    echo "==> ${preset}: live ingest + compaction drill"
    if [[ "${preset}" == "release" ]]; then iqport=7783 iaport=7787
    else iqport=7784 iaport=7788; fi
    isnap="${builddir[${preset}]}/check-ingest.snap"
    "${builddir[${preset}]}/apps/uots_server" --city=BRN --port="${iqport}" \
      --trajectories=1500 --admin-port="${iaport}" \
      --compact-snapshot="${isnap}" &
    ingest_pid=$!
    sleep 1
    "${builddir[${preset}]}/apps/uots_client" --port="${iqport}" \
      --trajectories=1500 --ingest=200 --num-queries=16
    iadmin="http://127.0.0.1:${iaport}"
    curl -fsS "${iadmin}/statusz" | grep '"delta_trajectories":200' >/dev/null
    curl -fsS -X POST "${iadmin}/compact" | grep '"compacting":true' >/dev/null
    for _ in $(seq 1 50); do
      if curl -fsS "${iadmin}/statusz" | grep '"compactions":1' >/dev/null; then
        break
      fi
      sleep 0.2
    done
    curl -fsS "${iadmin}/statusz" | grep '"compactions":1' >/dev/null
    curl -fsS "${iadmin}/metrics" \
      | grep "^uots_server_ingest_accepted_trips_total 200" >/dev/null
    "${builddir[${preset}]}/apps/uots_snapshot" verify "${isnap}"
    "${builddir[${preset}]}/apps/uots_client" --port="${iqport}" \
      --dataset="${isnap}" --verify --num-queries=16
    kill -TERM "${ingest_pid}"
    wait "${ingest_pid}"
    rm -f "${isnap}"
    ctest --preset "${preset}" -R uots_ingest_test --output-on-failure
    # Trip-assembly drill: construct connected trips over the wire and
    # demand byte equality against a cold in-process planner (cache
    # default, repeat, and bypass passes), then a short closed loop that
    # folds the trip.* histogram deltas scraped from the admin plane into
    # the client report. Under asan this sweeps the harvester's expansion
    # reuse, the k-best assembly DP, and the version-tagged trip-planner
    # pool against live traffic.
    echo "==> ${preset}: trip assembly drill"
    if [[ "${preset}" == "release" ]]; then tqport=7789 taport=7791
    else tqport=7790 taport=7792; fi
    "${builddir[${preset}]}/apps/uots_server" --city=BRN --port="${tqport}" \
      --trajectories=1500 --cache-max-entries=256 --admin-port="${taport}" &
    trip_pid=$!
    sleep 1
    "${builddir[${preset}]}/apps/uots_client" --port="${tqport}" \
      --trajectories=1500 --trip --verify --num-queries=16
    "${builddir[${preset}]}/apps/uots_client" --port="${tqport}" \
      --trajectories=1500 --trip --num-queries=16 --connections=2 \
      --requests=200 --scrape-admin="${taport}" \
      --json-out="${builddir[${preset}]}/check-trip.json"
    curl -fsS "http://127.0.0.1:${taport}/metrics" \
      | grep "uots_trip_plan_seconds_bucket" >/dev/null
    curl -fsS "http://127.0.0.1:${taport}/slowqueries" | grep '"segments"' >/dev/null
    kill -TERM "${trip_pid}"
    wait "${trip_pid}"
    rm -f "${builddir[${preset}]}/check-trip.json"
    ctest --preset "${preset}" -R "uots_trip_test|uots_trip_server_test" \
      --output-on-failure
  fi
done
echo "==> all checks passed"
