# ctest driver for the sharded event kernel: run the same 2-channel
# co-design cell with shards=1 (channel lanes on the caller's
# thread), shards=2 (one worker thread per channel), and shards=8
# (oversubscribed; clamps to 2), then assert the exported artifacts
# are byte-identical:
#
#   timeline    compared verbatim (integer microsecond timestamps,
#               no host-dependent fields)
#   stats JSON  compared minus the selfProfile line, the only
#               host-wall-clock field in the document
#
# shards=0 is the legacy kernel -- the other timing mode, so it is
# not compared against the sharded runs; instead it is run twice and
# checked for byte-exact reproducibility.
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DCLI=<refsched_cli> -DOUT=<dir> -P shard_smoke.cmake

foreach(var CLI OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "shard_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")

foreach(shards 0 1 2 8)
    execute_process(
        COMMAND "${CLI}" --policy co-design --workload WL-5
            --channels 2 --shards ${shards}
            --warmup 2 --measure 8 --seed 7
            --timeline "${OUT}/sh${shards}.timeline.json"
            --stats-json "${OUT}/sh${shards}.stats.json"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "refsched_cli --shards ${shards} failed (rc=${rc})")
    endif()
endforeach()

# Strip the host-dependent self-profile line from a stats export.
function(read_stats_stripped path outvar)
    file(READ "${path}" text)
    string(REGEX REPLACE "\"selfProfile\"[^\n]*" "" text "${text}")
    set(${outvar} "${text}" PARENT_SCOPE)
endfunction()

read_stats_stripped("${OUT}/sh1.stats.json" stats1)
file(READ "${OUT}/sh1.timeline.json" tl1)

foreach(shards 2 8)
    read_stats_stripped("${OUT}/sh${shards}.stats.json" stats_n)
    if(NOT stats1 STREQUAL stats_n)
        message(FATAL_ERROR
            "stats JSON diverges: shards=1 vs shards=${shards}")
    endif()
    file(READ "${OUT}/sh${shards}.timeline.json" tl_n)
    if(NOT tl1 STREQUAL tl_n)
        message(FATAL_ERROR
            "timeline diverges: shards=1 vs shards=${shards}")
    endif()
endforeach()

# Legacy reproducibility: a second shards=0 run must agree exactly.
execute_process(
    COMMAND "${CLI}" --policy co-design --workload WL-5
        --channels 2 --shards 0
        --warmup 2 --measure 8 --seed 7
        --timeline "${OUT}/sh0b.timeline.json"
        --stats-json "${OUT}/sh0b.stats.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "refsched_cli --shards 0 rerun failed (rc=${rc})")
endif()
read_stats_stripped("${OUT}/sh0.stats.json" stats0a)
read_stats_stripped("${OUT}/sh0b.stats.json" stats0b)
if(NOT stats0a STREQUAL stats0b)
    message(FATAL_ERROR "legacy (shards=0) stats not reproducible")
endif()
file(READ "${OUT}/sh0.timeline.json" tl0a)
file(READ "${OUT}/sh0b.timeline.json" tl0b)
if(NOT tl0a STREQUAL tl0b)
    message(FATAL_ERROR "legacy (shards=0) timeline not reproducible")
endif()

# The exports must not be trivially empty for the identity to mean
# anything.
string(LENGTH "${tl1}" tl_len)
if(tl_len LESS 1000)
    message(FATAL_ERROR "timeline suspiciously small (${tl_len} B)")
endif()
