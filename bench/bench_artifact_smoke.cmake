# ctest script for the figure benches' per-cell artifact flags: a run
# with --timeline-prefix, --stats-json-prefix and --telemetry-prefix
# must print the same tables as a plain run, and every artifact must
# be byte-identical between --jobs 1 and --jobs 4 (host timings
# aside).
#
# Usage (see bench/CMakeLists.txt):
#   cmake -DBENCH=<figure bench> -DOUT=<scratch dir> \
#         -P bench_artifact_smoke.cmake

if(NOT DEFINED BENCH OR NOT DEFINED OUT)
    message(FATAL_ERROR
        "bench_artifact_smoke.cmake needs -DBENCH=... -DOUT=...")
endif()

set(base --scale 512 --warmup 1 --measure 2)

# Run the bench with @p ARGN; store its stdout in ${var}.
function(run_bench var)
    execute_process(
        COMMAND "${BENCH}" ${base} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 60)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "'${ARGN}': exit ${rc}: ${err}")
    endif()
    set(${var} "${out}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${OUT}")
run_bench(plain)
foreach(jobs 1 4)
    set(dir "${OUT}/jobs${jobs}")
    file(MAKE_DIRECTORY "${dir}")
    run_bench(out${jobs} --jobs ${jobs}
        --timeline-prefix "${dir}/timeline"
        --stats-json-prefix "${dir}/stats"
        --telemetry-prefix "${dir}/telemetry")
    if(NOT out${jobs} STREQUAL plain)
        message(FATAL_ERROR "--jobs ${jobs} with artifacts changed stdout")
    endif()
endforeach()

file(GLOB files1 RELATIVE "${OUT}/jobs1" "${OUT}/jobs1/*")
file(GLOB files4 RELATIVE "${OUT}/jobs4" "${OUT}/jobs4/*")
list(LENGTH files1 count)
if(count EQUAL 0 OR NOT files1 STREQUAL files4)
    message(FATAL_ERROR
        "artifact sets differ: jobs 1 [${files1}] vs jobs 4 [${files4}]")
endif()
foreach(kind timeline stats telemetry)
    if(NOT files1 MATCHES "${kind}\\.cell0\\.")
        message(FATAL_ERROR "no ${kind} artifact for cell 0")
    endif()
endforeach()
# The stats JSON's "selfProfile" line holds host wall-clock times;
# every other byte is simulated output.
foreach(f IN LISTS files1)
    file(READ "${OUT}/jobs1/${f}" a)
    file(READ "${OUT}/jobs4/${f}" b)
    string(REGEX REPLACE "\"selfProfile\"[^\n]*" "" a "${a}")
    string(REGEX REPLACE "\"selfProfile\"[^\n]*" "" b "${b}")
    if(NOT a STREQUAL b)
        message(FATAL_ERROR "${f} differs between --jobs 1 and 4")
    endif()
endforeach()
message(STATUS "${count} artifacts identical across --jobs")
