# Build file of the benchmark driver (see README.md).
#
# perfbench/run.py configures the repository root with
# -DCMAKE_PROJECT_INCLUDE=<this file>. CMake includes it at the end of the
# root project() call; the deferred call below then runs after the root
# CMakeLists.txt has finished, so the driver compiles with exactly the
# repository's flags, include paths and definitions, and links its targets.
include_guard(GLOBAL)
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_driver)
  add_executable(perfbench_driver ${PERFBENCH_DIR}/driver.cc
                 ${PERFBENCH_DIR}/proc.cc ${PERFBENCH_DIR}/spans.cc
                 ${PERFBENCH_DIR}/wire.cc)
  target_link_libraries(perfbench_driver PRIVATE uots_server_lib
                        uots_bench_common Threads::Threads)
endfunction()

cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL perfbench_add_driver)
