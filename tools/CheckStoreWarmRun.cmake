# Proves that artifacts served from a warm persistent store run exactly
# as freshly computed ones (docs/ARCHITECTURE.md "Artifacts"): runs one
# sdspc invocation twice over one fresh --store-dir, cold then warm, and
# requires exit 0 and byte-identical stdout and stderr.  The invocation
# emits and runs a loop program of an unrolled kernel, so the warm run
# decodes every cached pass from disk, transform and codegen included,
# and executes what it decoded.
#
# The warm run must report store.disk.misses = 0, store.disk.corrupt = 0
# and as many store.disk.hits as the cold run wrote.  With the cache
# disabled (SDSP_DISABLE_ARTIFACT_CACHE not empty or "0", as the session
# reads it) neither run may touch the disk store, and the outputs must
# still match.
#
# Usage:
#   cmake -DSDSPC=<path> -DWORK_DIR=<dir> -P CheckStoreWarmRun.cmake

set(RUN_DIR ${WORK_DIR}/store-warm-run)
file(REMOVE_RECURSE ${RUN_DIR})
file(MAKE_DIRECTORY ${RUN_DIR})

macro(die)
  file(REMOVE_RECURSE ${RUN_DIR})
  message(FATAL_ERROR ${ARGV})
endmacro()

# Runs the invocation; sets <TAG>_OUT, <TAG>_ERR and <TAG>_METRICS.
macro(run_sdspc TAG)
  execute_process(
    COMMAND ${SDSPC} -k loop9lcd --unroll=8 --capacity=2 --emit=program
            --run=32 --verify --store-dir=${RUN_DIR}/store
            --metrics-json=${RUN_DIR}/metrics_${TAG}.json
    RESULT_VARIABLE ${TAG}_EXIT
    OUTPUT_VARIABLE ${TAG}_OUT
    ERROR_VARIABLE ${TAG}_ERR)
  if(NOT ${TAG}_EXIT EQUAL 0)
    die("${TAG} run failed (exit ${${TAG}_EXIT}):\n${${TAG}_ERR}")
  endif()
  file(READ ${RUN_DIR}/metrics_${TAG}.json ${TAG}_METRICS)
endmacro()

# Sets OUT_VAR to the value of counter NAME in METRICS.
function(counter METRICS NAME OUT_VAR)
  string(REPLACE "." "\\." PATTERN "${NAME}")
  if(NOT METRICS MATCHES "\"${PATTERN}\": ([0-9]+)")
    die("metrics report has no counter ${NAME}")
  endif()
  set(${OUT_VAR} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

run_sdspc(COLD)
run_sdspc(WARM)

if(NOT WARM_OUT STREQUAL COLD_OUT)
  die("stdout of the warm run differs from the cold run")
endif()
if(NOT WARM_ERR STREQUAL COLD_ERR)
  die("stderr of the warm run differs from the cold run\n"
      "cold:\n${COLD_ERR}\nwarm:\n${WARM_ERR}")
endif()

counter("${COLD_METRICS}" store.disk.writes COLD_WRITES)
counter("${WARM_METRICS}" store.disk.hits WARM_HITS)
counter("${WARM_METRICS}" store.disk.misses WARM_MISSES)
counter("${WARM_METRICS}" store.disk.corrupt WARM_CORRUPT)
counter("${COLD_METRICS}" store.disk.hits COLD_HITS)
counter("${WARM_METRICS}" store.disk.writes WARM_WRITES)

if(NOT "$ENV{SDSP_DISABLE_ARTIFACT_CACHE}" MATCHES "^0?$")
  foreach(C COLD_WRITES COLD_HITS WARM_HITS WARM_MISSES WARM_WRITES)
    if(NOT ${C} EQUAL 0)
      die("the disk store was used with the cache disabled: ${C} = ${${C}}")
    endif()
  endforeach()
else()
  if(COLD_WRITES EQUAL 0)
    die("the cold run wrote nothing to the disk store")
  endif()
  if(NOT WARM_MISSES EQUAL 0 OR NOT WARM_CORRUPT EQUAL 0 OR
     NOT WARM_HITS EQUAL COLD_WRITES)
    die("the warm run was not served from the disk store: "
        "${WARM_HITS} hits for ${COLD_WRITES} cold writes, "
        "${WARM_MISSES} misses, ${WARM_CORRUPT} corrupt")
  endif()
endif()

file(REMOVE_RECURSE ${RUN_DIR})
message(STATUS "store warm run: output byte-identical to the cold run, "
               "store counters as the cache setting requires")
