# Writes a PNML ring of STAGES stages with tools/make_ring_pnml.py and
# runs sdspc on it.  By default the ring is dead and the run is
# `sdspc --pnml=<it> --verify`, which must exit 0 with "verify: ok".
# The ring is generated, never committed.
#
# Usage:
#   cmake -DSDSPC=<path> -DPYTHON=<path> -DSCRIPT=<make_ring_pnml.py>
#         -DWORK_DIR=<dir> -DSTAGES=<n>
#         [-DTOKENS=<k>] [-DRING_FLAGS=--double]
#         [-DARGS=<sdspc flags>] [-DEXPECT_EXIT=<n>]
#         [-DEXPECT_STDERR=<regex>]
#         [-DEXPECT_COUNTERS=<name=value,name=value...>]
#         -P CheckLargeRing.cmake
#
# TOKENS (default 0) go on the ring's last place (on each ring's, with
# --double).  ARGS default to --verify, EXPECT_EXIT to 0 and
# EXPECT_STDERR to "verify: ok".  Each EXPECT_COUNTERS entry must equal
# the counter of that name in the run's --metrics-json document.

if(NOT DEFINED TOKENS)
  set(TOKENS 0)
endif()
if(NOT DEFINED ARGS)
  set(ARGS "--verify")
endif()
if(NOT DEFINED EXPECT_EXIT)
  set(EXPECT_EXIT 0)
endif()
if(NOT DEFINED EXPECT_STDERR)
  set(EXPECT_STDERR "verify: ok")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(RING "${WORK_DIR}/ring-${STAGES}-${TOKENS}${RING_FLAGS}.pnml")
set(METRICS "${WORK_DIR}/ring-${STAGES}-${TOKENS}${RING_FLAGS}.metrics.json")
execute_process(COMMAND ${PYTHON} ${SCRIPT} ${RING_FLAGS} ${RING} ${STAGES}
                        ${TOKENS}
                RESULT_VARIABLE GEN_EXIT)
if(NOT GEN_EXIT EQUAL 0)
  message(FATAL_ERROR "make_ring_pnml.py exited ${GEN_EXIT}")
endif()
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
if(EXPECT_COUNTERS)
  list(APPEND ARG_LIST "--metrics-json=${METRICS}")
endif()
execute_process(COMMAND ${SDSPC} --pnml=${RING} ${ARG_LIST}
                RESULT_VARIABLE EXIT_CODE
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
file(REMOVE "${RING}")
set(WHAT "sdspc --pnml=<ring of ${STAGES} stages, ${TOKENS} tokens"
         "${RING_FLAGS}> ${ARGS}")
if(NOT EXIT_CODE EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${WHAT}: exit code ${EXIT_CODE}, expected "
                      "${EXPECT_EXIT}\nstderr:\n${ERR}")
endif()
if(NOT ERR MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${WHAT}: stderr does not match "
                      "'${EXPECT_STDERR}':\n${ERR}")
endif()
if(EXPECT_COUNTERS)
  file(READ "${METRICS}" DOC)
  file(REMOVE "${METRICS}")
  string(REPLACE "," ";" PAIRS "${EXPECT_COUNTERS}")
  foreach(PAIR IN LISTS PAIRS)
    string(REPLACE "=" ";" KV "${PAIR}")
    list(GET KV 0 NAME)
    list(GET KV 1 WANT)
    string(JSON GOT ERROR_VARIABLE JSON_ERR GET "${DOC}" counters "${NAME}")
    if(JSON_ERR)
      message(FATAL_ERROR "${WHAT}: no counter '${NAME}' in the metrics "
                          "document (${JSON_ERR})")
    endif()
    if(NOT GOT EQUAL WANT)
      message(FATAL_ERROR "${WHAT}: counter ${NAME} = ${GOT}, expected "
                          "${WANT}")
    endif()
  endforeach()
endif()
