# ctest script for timeline_check itself: run it on one hand-written
# fixture and require the expected exit code and a matching line on
# stdout/stderr, so a check that stops rejecting (or starts rejecting
# a valid file) fails here rather than passing every smoke test.
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DCHECK=<timeline_check> -DFILE=<fixture.json> -DRC=<code>
#         -DMATCH=<regex> -P timeline_check_fixture.cmake

foreach(var CHECK FILE RC MATCH)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "timeline_check_fixture.cmake needs -D${var}=...")
    endif()
endforeach()

execute_process(
    COMMAND "${CHECK}" "${FILE}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    TIMEOUT 10)
if(NOT rc EQUAL RC)
    message(FATAL_ERROR "${FILE}: exit ${rc}, expected ${RC}: ${out}")
endif()
if(NOT out MATCHES "${MATCH}")
    message(FATAL_ERROR "${FILE}: output lacks '${MATCH}': ${out}")
endif()
