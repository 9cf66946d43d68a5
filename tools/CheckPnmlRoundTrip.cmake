# The PNML round-trip determinism gate (docs/INTEROP.md): canonical
# export must be a fixpoint of import.  For every SDSP-PN the bundled
# kernels and examples produce, and for every well-formed net in the
# fuzz corpus, export -> import -> export must be byte-identical, and
# `--pnml=NET --verify` must confirm the classification, the frustum
# rate, and round-trip stability in-process; one of those exports is
# loop7 unrolled 256 times, about 2.1 MB.  Malformed corpus nets
# must be *rejected* with the structured exit-code contract (1 for
# input, 2 for resource/transient) — never a crash (ASan/UBSan run
# this same script in CI).  Injected pnml:parse faults must replay
# byte-identically across runs and argument channels.
#
# Usage:
#   cmake -DSDSPC=<path> -DWORK_DIR=<dir> -DCORPUS_DIR=<dir>
#         [-DEXAMPLES_DIR=<dir>] [-DMODE=all|corpus]
#         -P CheckPnmlRoundTrip.cmake

if(NOT MODE)
  set(MODE all)
endif()
file(MAKE_DIRECTORY ${WORK_DIR}/pnml_roundtrip)
set(RT ${WORK_DIR}/pnml_roundtrip)

# Round-trips one exported PNML file: re-import + re-export must give
# the same bytes, and --verify must pass.
function(check_roundtrip NAME FIRST)
  execute_process(COMMAND ${SDSPC} --pnml=${FIRST} --emit=pnml
                  OUTPUT_FILE ${RT}/${NAME}.second.pnml
                  ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR
      "${NAME}: exported PNML does not re-import (exit ${CODE}):\n${ERR}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${FIRST} ${RT}/${NAME}.second.pnml
                  RESULT_VARIABLE DIFF)
  if(NOT DIFF EQUAL 0)
    message(FATAL_ERROR
      "${NAME}: export -> import -> export is not byte-identical\n"
      "first:  ${FIRST}\nsecond: ${RT}/${NAME}.second.pnml")
  endif()
  execute_process(COMMAND ${SDSPC} --pnml=${FIRST} --verify
                  OUTPUT_QUIET ERROR_VARIABLE VERR RESULT_VARIABLE VCODE)
  if(NOT VCODE EQUAL 0)
    message(FATAL_ERROR
      "${NAME}: --pnml --verify failed (exit ${VCODE}):\n${VERR}")
  endif()
  if(NOT VERR MATCHES "verify: ok")
    message(FATAL_ERROR "${NAME}: --verify printed no verify line:\n${VERR}")
  endif()
endfunction()

if(MODE STREQUAL "all")
  # Leg 1: every bundled kernel's SDSP-PN.
  foreach(KERNEL l1 l2 loop1 loop3 loop5 loop7 loop9 loop9lcd loop12)
    execute_process(COMMAND ${SDSPC} -k ${KERNEL} --emit=pnml
                    OUTPUT_FILE ${RT}/${KERNEL}.pnml
                    ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      message(FATAL_ERROR
        "kernel ${KERNEL}: --emit=pnml failed (exit ${CODE}):\n${ERR}")
    endif()
    check_roundtrip(kernel_${KERNEL} ${RT}/${KERNEL}.pnml)
  endforeach()

  # Leg 1b: one export at scale.  loop7 x256 is about 2.1 MB, so the
  # reader's offsets and views run over a document of real size, not
  # only over the few-KB nets of the other legs.
  execute_process(COMMAND ${SDSPC} -k loop7 --unroll=256 --emit=pnml
                  OUTPUT_FILE ${RT}/loop7_x256.pnml
                  ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR
      "kernel loop7 x256: --emit=pnml failed (exit ${CODE}):\n${ERR}")
  endif()
  file(SIZE ${RT}/loop7_x256.pnml X256_BYTES)
  if(X256_BYTES LESS 2000000)
    message(FATAL_ERROR
      "kernel loop7 x256: export is only ${X256_BYTES} bytes; the "
      "at-scale leg needs a document of about 2 MB")
  endif()
  check_roundtrip(kernel_loop7_x256 ${RT}/loop7_x256.pnml)

  # Leg 2: every example loop's SDSP-PN.
  if(EXAMPLES_DIR)
    file(GLOB EXAMPLES ${EXAMPLES_DIR}/*.loop)
    list(SORT EXAMPLES)
    foreach(LOOP ${EXAMPLES})
      get_filename_component(STEM ${LOOP} NAME_WE)
      execute_process(COMMAND ${SDSPC} ${LOOP} --emit=pnml
                      OUTPUT_FILE ${RT}/ex_${STEM}.pnml
                      ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
      if(NOT CODE EQUAL 0)
        message(FATAL_ERROR
          "example ${STEM}: --emit=pnml failed (exit ${CODE}):\n${ERR}")
      endif()
      check_roundtrip(example_${STEM} ${RT}/ex_${STEM}.pnml)
    endforeach()
  endif()
endif()

# Leg 3: the fuzz corpus.  Every net must resolve to a contract exit
# code — 0 (accepted), 1 (structured rejection), 2 (resource) — and
# accepted nets must round-trip byte-stably through the canonical form.
file(GLOB CORPUS ${CORPUS_DIR}/*.pnml)
list(SORT CORPUS)
list(LENGTH CORPUS N)
if(N LESS 10)
  message(FATAL_ERROR "corpus at ${CORPUS_DIR} looks truncated (${N} files)")
endif()
set(ACCEPTED 0)
set(REJECTED 0)
foreach(NET ${CORPUS})
  get_filename_component(STEM ${NET} NAME_WE)
  execute_process(COMMAND ${SDSPC} --pnml=${NET}
                  OUTPUT_QUIET ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
  if(CODE EQUAL 0)
    math(EXPR ACCEPTED "${ACCEPTED} + 1")
    execute_process(COMMAND ${SDSPC} --pnml=${NET} --emit=pnml
                    OUTPUT_FILE ${RT}/corpus_${STEM}.pnml
                    ERROR_QUIET RESULT_VARIABLE ECODE)
    if(NOT ECODE EQUAL 0)
      message(FATAL_ERROR "corpus ${STEM}: accepted but does not export")
    endif()
    check_roundtrip(corpus_${STEM} ${RT}/corpus_${STEM}.pnml)
  elseif(CODE EQUAL 1)
    math(EXPR REJECTED "${REJECTED} + 1")
    if(NOT ERR MATCHES "InvalidInput")
      message(FATAL_ERROR
        "corpus ${STEM}: rejection is not structured [InvalidInput]:\n${ERR}")
    endif()
  elseif(NOT CODE EQUAL 2)
    message(FATAL_ERROR
      "corpus ${STEM}: exit ${CODE} is outside the contract "
      "(crash or unstructured death):\n${ERR}")
  endif()
endforeach()
if(ACCEPTED EQUAL 0 OR REJECTED EQUAL 0)
  message(FATAL_ERROR
    "corpus is one-sided (${ACCEPTED} accepted, ${REJECTED} rejected); "
    "both halves must stay populated")
endif()
message(STATUS "pnml corpus: ${ACCEPTED} accepted, ${REJECTED} rejected")

if(MODE STREQUAL "all")
  # Leg 4: deterministic pnml:parse fault replay — same spec, same
  # bytes, whether armed by flag or by environment.
  set(RING ${CORPUS_DIR}/ring.pnml)
  execute_process(COMMAND ${SDSPC} --pnml=${RING} --emit=rate
                  --fault-spec=pnml:parse:fail@1
                  OUTPUT_VARIABLE OUT_f1 ERROR_VARIABLE ERR_f1
                  RESULT_VARIABLE EXIT_f1)
  execute_process(COMMAND ${SDSPC} --pnml=${RING} --emit=rate
                  --fault-spec=pnml:parse:fail@1
                  OUTPUT_VARIABLE OUT_f2 ERROR_VARIABLE ERR_f2
                  RESULT_VARIABLE EXIT_f2)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env
                  "SDSP_FAULT_SPEC=pnml:parse:fail@1"
                  ${SDSPC} --pnml=${RING} --emit=rate
                  OUTPUT_VARIABLE OUT_f3 ERROR_VARIABLE ERR_f3
                  RESULT_VARIABLE EXIT_f3)
  if(NOT EXIT_f1 EQUAL 2)
    message(FATAL_ERROR
      "injected pnml:parse fault must exit 2, got ${EXIT_f1}:\n${ERR_f1}")
  endif()
  if(NOT ERR_f1 MATCHES "injected transient fault at pnml:parse")
    message(FATAL_ERROR "fault diagnostic missing:\n${ERR_f1}")
  endif()
  foreach(WHAT EXIT OUT ERR)
    if(NOT "${${WHAT}_f1}" STREQUAL "${${WHAT}_f2}" OR
       NOT "${${WHAT}_f1}" STREQUAL "${${WHAT}_f3}")
      message(FATAL_ERROR
        "pnml:parse fault replay is not deterministic (${WHAT} differs)")
    endif()
  endforeach()
endif()
