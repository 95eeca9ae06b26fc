# ctest script for refsched_cli's numeric flags: every malformed or
# out-of-range value must be rejected at parse time -- a prompt,
# non-zero exit -- instead of being truncated (atoi-style), silently
# defaulted, or fed to the simulator (a NaN retention or a negative
# warm-up never finishes).  A well-formed run of the same base
# command must still exit 0, so the rejections are not an artefact of
# the base arguments.
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DCLI=<refsched_cli> -P cli_reject_smoke.cmake

if(NOT DEFINED CLI)
    message(FATAL_ERROR "cli_reject_smoke.cmake needs -DCLI=...")
endif()

# One quantum of warm-up and measurement: a few hundredths of a
# second when the flags are good.
set(base --workload WL-5 --scale 1024 --warmup 1 --measure 1)

execute_process(
    COMMAND "${CLI}" ${base}
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 30)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "well-formed base run failed (rc=${rc})")
endif()

# Each entry is "FLAG VALUE".  A later flag overrides the base one.
set(bad_flags
    "--retention nan"
    "--retention inf"
    "--retention 0"
    "--warmup -3"
    "--measure 0"
    "--shards abc"
    "--shards -1"
    "--cores 2x"
    "--cores 0"
    "--channels 1.5"
    "--seed 12abc"
    "--seed -1"
    "--density 32.5"
    "--density 12"
    "--scale 0"
    "--eta 0"
    "--tasks-per-core 99999999999"
    "--telemetry-period 0"
    "--trace-window a:10")

foreach(entry IN LISTS bad_flags)
    separate_arguments(args UNIX_COMMAND "${entry}")
    execute_process(
        COMMAND "${CLI}" ${base} ${args}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err
        TIMEOUT 10)
    if(NOT rc MATCHES "^[0-9]+$")
        message(FATAL_ERROR "'${entry}': no prompt exit (${rc})")
    endif()
    if(rc EQUAL 0)
        message(FATAL_ERROR "'${entry}' was accepted (exit 0)")
    endif()
    if(NOT err MATCHES "error: ")
        message(FATAL_ERROR "'${entry}' exited ${rc} without a message")
    endif()
endforeach()
