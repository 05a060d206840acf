# Experiment harness: one binary per table/figure (DESIGN.md §4).
# Included from the top-level CMakeLists so that ${CMAKE_BINARY_DIR}/bench
# holds only executables.

set(UOTS_BENCH_DIR ${CMAKE_SOURCE_DIR}/bench)

add_library(uots_bench_common
  ${UOTS_BENCH_DIR}/common/datasets.cc
  ${UOTS_BENCH_DIR}/common/report.cc
)
target_link_libraries(uots_bench_common PUBLIC uots_core uots_storage)
target_include_directories(uots_bench_common PUBLIC ${UOTS_BENCH_DIR})

function(uots_add_bench name)
  add_executable(${name} ${UOTS_BENCH_DIR}/${name}.cc)
  target_link_libraries(${name} PRIVATE uots_bench_common benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

uots_add_bench(bench_pruning)          # T1
uots_add_bench(bench_cardinality)      # F1
uots_add_bench(bench_query_locations)  # F2
uots_add_bench(bench_lambda)           # F3
uots_add_bench(bench_topk)             # F4
uots_add_bench(bench_threads)          # F6
uots_add_bench(bench_euclidean)        # A2
uots_add_bench(bench_micro)            # M1
uots_add_bench(bench_pairs)            # T2
uots_add_bench(bench_temporal)         # F7
uots_add_bench(bench_coldstart)        # S1 (snapshot load vs text build)
uots_add_bench(bench_cache)            # C1 (cross-query caching tiers)
uots_add_bench(bench_oracle)           # O1 (CH distance oracle)
uots_add_bench(bench_ingest)           # I1 (live ingest + compaction)
uots_add_bench(bench_trip)             # T1 (trip assembly)
target_link_libraries(bench_trip PRIVATE uots_trip)
uots_add_bench(bench_wire)             # W1 (wire cache-hit budget)
target_link_libraries(bench_wire PRIVATE uots_server_lib)
