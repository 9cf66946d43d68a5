# Writes a dead PNML ring of STAGES stages with tools/make_ring_pnml.py
# and runs `sdspc --pnml=<it> --verify`, which must exit 0 with
# "verify: ok".  The ring is generated, never committed.
#
# Usage:
#   cmake -DSDSPC=<path> -DPYTHON=<path> -DSCRIPT=<make_ring_pnml.py>
#         -DWORK_DIR=<dir> -DSTAGES=<n> -P CheckLargeRing.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")
set(RING "${WORK_DIR}/deadring-${STAGES}.pnml")
execute_process(COMMAND ${PYTHON} ${SCRIPT} ${RING} ${STAGES}
                RESULT_VARIABLE GEN_EXIT)
if(NOT GEN_EXIT EQUAL 0)
  message(FATAL_ERROR "make_ring_pnml.py exited ${GEN_EXIT}")
endif()
execute_process(COMMAND ${SDSPC} --pnml=${RING} --verify
                RESULT_VARIABLE EXIT_CODE
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
file(REMOVE "${RING}")
if(NOT EXIT_CODE EQUAL 0)
  message(FATAL_ERROR "sdspc --pnml=<dead ring of ${STAGES} stages> "
                      "--verify: exit code ${EXIT_CODE}, expected 0\n"
                      "stderr:\n${ERR}")
endif()
if(NOT ERR MATCHES "verify: ok")
  message(FATAL_ERROR "no 'verify: ok' on stderr:\n${ERR}")
endif()
