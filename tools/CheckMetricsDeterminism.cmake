# Pins the determinism contract of `sdspc --metrics-json`
# (docs/OBSERVABILITY.md): the "counters" object — engine, state-table,
# cache, executor task counts — is byte-identical whatever -j, because
# the shared cache computes each key exactly once and shard assignment
# is a pure function of the key hash.  Gauges (queue depth peak, task
# wall seconds) are scheduling-dependent by design and are excluded.
#
# Usage:
#   cmake -DSDSPC=<path> -DWORK_DIR=<dir> [-DTAG=<suffix>]
#         [-DEXTRA_ARGS=<args>] -P CheckMetricsDeterminism.cmake
#
# TAG keeps the scratch files of concurrently running ctest variants
# (rate and frustum engines) from clobbering each other; EXTRA_ARGS is
# a ;-list appended to the sdspc command line (e.g.
# --rate-engine=enumerate).

foreach(V SDSPC WORK_DIR)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "missing -D${V}=")
  endif()
endforeach()
if(NOT DEFINED TAG)
  set(TAG "")
endif()
if(NOT DEFINED EXTRA_ARGS)
  set(EXTRA_ARGS "")
endif()

foreach(J 1 8)
  execute_process(
    COMMAND ${SDSPC} --batch-kernels --verify -j ${J} ${EXTRA_ARGS}
            --metrics-json=${WORK_DIR}/metrics${TAG}_j${J}.json
    OUTPUT_QUIET ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "sdspc -j ${J} exited ${CODE}:\n${ERR}")
  endif()
  file(READ ${WORK_DIR}/metrics${TAG}_j${J}.json CONTENT)
  # The counters object holds one integer series per line and no nested
  # braces, so a non-greedy brace match lifts it whole.
  string(REGEX MATCH "\"counters\": {[^}]*}" COUNTERS_J${J} "${CONTENT}")
  if(COUNTERS_J${J} STREQUAL "")
    message(FATAL_ERROR
            "metrics${TAG}_j${J}.json has no \"counters\" object:\n${CONTENT}")
  endif()
endforeach()

if(NOT COUNTERS_J1 STREQUAL COUNTERS_J8)
  message(FATAL_ERROR "metrics counters differ between -j 1 and -j 8:\n"
                      "--- -j 1 ---\n${COUNTERS_J1}\n"
                      "--- -j 8 ---\n${COUNTERS_J8}")
endif()
message(STATUS "metrics counters identical across -j 1 / -j 8")
