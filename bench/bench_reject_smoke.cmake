# ctest script for the figure benches' flag values: a malformed or
# out-of-range number, an output path into a missing directory, or a
# --json path that cannot be opened (an existing directory), must
# exit 2 with usage before any simulation starts -- no table on
# stdout, no atoi-style truncation ("12x" as 12), no silent default
# ("abc" as 0 = all hardware threads) and no write failure after the
# whole grid has run.
#
# Usage (see bench/CMakeLists.txt):
#   cmake -DBENCH=<figure bench> -P bench_reject_smoke.cmake

if(NOT DEFINED BENCH)
    message(FATAL_ERROR "bench_reject_smoke.cmake needs -DBENCH=...")
endif()

# Each entry is "FLAG VALUE".
set(bad_flags
    "--scale 12x"
    "--jobs abc"
    "--warmup -1"
    "--json /nonexistent/dir/x.json"
    "--json ${CMAKE_CURRENT_LIST_DIR}/"
    "--timeline-prefix /nonexistent/dir/p"
    "--stats-json-prefix /nonexistent/dir/p"
    "--telemetry-prefix /nonexistent/dir/p")

foreach(entry IN LISTS bad_flags)
    separate_arguments(args UNIX_COMMAND "${entry}")
    execute_process(
        COMMAND "${BENCH}" ${args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 10)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "'${entry}': expected exit 2, got ${rc}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "'${entry}' printed results: ${out}")
    endif()
    if(NOT err MATCHES "usage: ")
        message(FATAL_ERROR "'${entry}' exited without usage: ${err}")
    endif()
endforeach()
