# ctest driver for the sharded event kernel: run the same 2-channel
# co-design cell twice with shards=1 (channel lanes on their own
# event queues, synchronized at epoch boundaries) and twice with
# shards=0 (the legacy kernel), then assert each pair exported
# byte-identical artifacts:
#
#   timeline    compared verbatim (integer microsecond timestamps,
#               no host-dependent fields)
#   stats JSON  compared minus the selfProfile line, the only
#               host-wall-clock field in the document
#
# The two kernels are different timing modes, so they are never
# compared against each other.
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DCLI=<refsched_cli> -DOUT=<dir> -P shard_smoke.cmake

foreach(var CLI OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "shard_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")

# Strip the host-dependent self-profile line from a stats export.
function(read_stats_stripped path outvar)
    file(READ "${path}" text)
    string(REGEX REPLACE "\"selfProfile\"[^\n]*" "" text "${text}")
    set(${outvar} "${text}" PARENT_SCOPE)
endfunction()

foreach(shards 0 1)
    foreach(run a b)
        set(tag "sh${shards}${run}")
        execute_process(
            COMMAND "${CLI}" --policy co-design --workload WL-5
                --channels 2 --shards ${shards}
                --warmup 2 --measure 8 --seed 7
                --timeline "${OUT}/${tag}.timeline.json"
                --stats-json "${OUT}/${tag}.stats.json"
            RESULT_VARIABLE rc
            OUTPUT_QUIET)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "refsched_cli --shards ${shards} run ${run} failed (rc=${rc})")
        endif()
    endforeach()

    read_stats_stripped("${OUT}/sh${shards}a.stats.json" stats_a)
    read_stats_stripped("${OUT}/sh${shards}b.stats.json" stats_b)
    if(NOT stats_a STREQUAL stats_b)
        message(FATAL_ERROR "shards=${shards} stats not reproducible")
    endif()
    file(READ "${OUT}/sh${shards}a.timeline.json" tl_a)
    file(READ "${OUT}/sh${shards}b.timeline.json" tl_b)
    if(NOT tl_a STREQUAL tl_b)
        message(FATAL_ERROR "shards=${shards} timeline not reproducible")
    endif()

    # The exports must not be trivially empty for the identity to
    # mean anything.
    string(LENGTH "${tl_a}" tl_len)
    if(tl_len LESS 1000)
        message(FATAL_ERROR
            "shards=${shards} timeline suspiciously small (${tl_len} B)")
    endif()
endforeach()
