# ctest driver for the observability exporters: run one co-design
# cell with a timeline + stats-json export, then schema-validate the
# timeline and assert the co-design property (no scheduled quantum's
# task footprint overlaps the bank under refresh).  The all-bank cell
# also samples telemetry: counter tracks (chN.blockedReads, queue
# depths) reach a timeline only that way, and the check requires
# them.
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DCLI=<refsched_cli> -DCHECK=<timeline_check> -DOUT=<dir>
#         -P timeline_smoke.cmake

foreach(var CLI CHECK OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "timeline_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")
set(timeline "${OUT}/codesign_timeline.json")
set(stats "${OUT}/codesign_stats.json")

execute_process(
    COMMAND "${CLI}" --policy co-design --workload WL-5
        --warmup 2 --measure 8 --seed 7
        --timeline "${timeline}" --stats-json "${stats}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "refsched_cli failed (rc=${rc})")
endif()

execute_process(
    COMMAND "${CHECK}" "${timeline}" --require-clean-picks
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "timeline_check failed (rc=${rc})")
endif()

# The stats export must carry the refresh-overlap latency split: the
# clean histogram is always populated on a run with reads, and both
# histogram keys must be present in the document.
file(READ "${stats}" stats_text)
foreach(key readLatencyClean readLatencyBlocked)
    if(NOT stats_text MATCHES "${key}")
        message(FATAL_ERROR "stats JSON missing ${key}")
    endif()
endforeach()
if(NOT stats_text MATCHES "readLatencyClean\": {\"mean")
    message(FATAL_ERROR "readLatencyClean not an object")
endif()

# An all-bank cell actually blocks reads on refresh, so there the
# blocked histogram must be non-empty too.
set(ab_timeline "${OUT}/allbank_timeline.json")
set(ab_stats "${OUT}/allbank_stats.json")
execute_process(
    COMMAND "${CLI}" --policy all-bank --workload WL-5
        --warmup 2 --measure 8 --seed 7
        --timeline "${ab_timeline}" --stats-json "${ab_stats}"
        --telemetry "${OUT}/allbank_telemetry.jsonl"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "refsched_cli (all-bank) failed (rc=${rc})")
endif()
execute_process(
    COMMAND "${CHECK}" "${ab_timeline}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE ab_check)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "timeline_check (all-bank) failed (rc=${rc})")
endif()
if(NOT ab_check MATCHES " [1-9][0-9]* counter samples")
    message(FATAL_ERROR
        "all-bank timeline has no counter samples: ${ab_check}")
endif()
file(READ "${ab_stats}" ab_text)
if(ab_text MATCHES "readLatencyBlocked\": {\"mean\": 0, \"min\": 0, \"max\": 0, \"count\": 0")
    message(FATAL_ERROR "all-bank blocked histogram is empty")
endif()
