# Proves `sdspc --remote` is byte-identical to local compilation
# (docs/SERVICE.md): starts an sdspd, runs a corpus of invocations both
# locally and through the daemon, and diffs stdout, stderr, exit code,
# and the --batch-json report.  A second, warm-restart leg restarts the
# daemon over the same --store-dir and asserts that (a) the remote
# output does not change and (b) the restarted daemon served cacheable
# passes from the persistent disk store (store.disk.hits > 0).
# With the cache disabled (SDSP_DISABLE_ARTIFACT_CACHE not empty or
# "0", as the session reads it) (b) becomes: neither daemon counts any
# cache.hits, store.disk.hits or store.disk.writes.
#
# Unix only (the daemon speaks a Unix-domain socket).
#
# Usage:
#   cmake -DSDSPC=<path> -DSDSPD=<path> -DWORK_DIR=<dir>
#         [-DEXAMPLES_DIR=<dir>] [-DEMITS=<;-list>]
#         -P CheckRemoteDeterminism.cmake

if(NOT DEFINED EMITS OR EMITS STREQUAL "")
  set(EMITS "rate;schedule;c")
endif()

# Sockets need a short path: sun_path caps out around 108 bytes, which
# deep build trees can exceed.
execute_process(COMMAND mktemp -d /tmp/sdsp-remote-XXXXXX
                OUTPUT_VARIABLE SCRATCH
                OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE MKTEMP_EXIT)
if(NOT MKTEMP_EXIT EQUAL 0)
  message(FATAL_ERROR "mktemp failed")
endif()
set(SOCK ${SCRATCH}/d.sock)
set(STORE ${SCRATCH}/store)

function(cleanup)
  if(DEFINED DAEMON_PID AND NOT DAEMON_PID STREQUAL "")
    execute_process(COMMAND kill -KILL ${DAEMON_PID} ERROR_QUIET)
  endif()
  file(REMOVE_RECURSE ${SCRATCH})
endfunction()

macro(die)
  cleanup()
  message(FATAL_ERROR ${ARGV})
endmacro()

# Starts an sdspd (extra args in ${ARGN}) and waits for its readiness
# line; sets DAEMON_PID / DAEMON_ERR in the caller.
macro(start_daemon TAG)
  set(DAEMON_OUT ${SCRATCH}/daemon_${TAG}.out)
  set(DAEMON_ERR ${SCRATCH}/daemon_${TAG}.err)
  string(JOIN " " DAEMON_EXTRA ${ARGN})
  set(DAEMON_CMD "${SDSPD} --socket=${SOCK} ${DAEMON_EXTRA}")
  execute_process(
    COMMAND sh -c
      "${DAEMON_CMD} > ${DAEMON_OUT} 2> ${DAEMON_ERR} & echo $!"
    OUTPUT_VARIABLE DAEMON_PID
    OUTPUT_STRIP_TRAILING_WHITESPACE)
  set(READY FALSE)
  foreach(ATTEMPT RANGE 100)
    if(EXISTS ${DAEMON_OUT})
      file(READ ${DAEMON_OUT} DAEMON_STDOUT)
      string(FIND "${DAEMON_STDOUT}" "listening on" FOUND)
      if(NOT FOUND EQUAL -1)
        set(READY TRUE)
        break()
      endif()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  endforeach()
  if(NOT READY)
    file(READ ${DAEMON_ERR} DAEMON_STDERR)
    die("sdspd (${TAG}) never became ready:\n${DAEMON_STDERR}")
  endif()
endmacro()

# SIGTERM + graceful-drain barrier: the shutdown line is printed after
# every in-flight request has answered and state is flushed.
macro(stop_daemon TAG)
  execute_process(COMMAND kill -TERM ${DAEMON_PID} ERROR_QUIET)
  set(STOPPED FALSE)
  foreach(ATTEMPT RANGE 150)
    if(EXISTS ${DAEMON_ERR})
      file(READ ${DAEMON_ERR} DAEMON_STDERR)
      string(FIND "${DAEMON_STDERR}" "shutting down" FOUND)
      if(NOT FOUND EQUAL -1)
        set(STOPPED TRUE)
        break()
      endif()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  endforeach()
  if(NOT STOPPED)
    die("sdspd (${TAG}) did not drain after SIGTERM")
  endif()
  set(DAEMON_PID "")
endmacro()

# Runs ${ARGN} locally and through --remote and diffs every observable
# byte.  BATCH_JSON, when non-empty, additionally diffs that report.
macro(check_invocation LABEL BATCH_JSON)
  set(LOCAL_ARGS ${ARGN})
  set(REMOTE_ARGS --remote=${SOCK} ${ARGN})
  if(NOT "${BATCH_JSON}" STREQUAL "")
    list(APPEND LOCAL_ARGS --batch-json=${SCRATCH}/local.json)
    list(APPEND REMOTE_ARGS --batch-json=${SCRATCH}/remote.json)
  endif()
  execute_process(COMMAND ${SDSPC} ${LOCAL_ARGS}
                  RESULT_VARIABLE LOCAL_EXIT
                  OUTPUT_VARIABLE LOCAL_OUT
                  ERROR_VARIABLE LOCAL_ERR)
  execute_process(COMMAND ${SDSPC} ${REMOTE_ARGS}
                  RESULT_VARIABLE REMOTE_EXIT
                  OUTPUT_VARIABLE REMOTE_OUT
                  ERROR_VARIABLE REMOTE_ERR)
  if(NOT LOCAL_EXIT EQUAL REMOTE_EXIT)
    die("[${LABEL}] exit codes differ: local ${LOCAL_EXIT}, "
        "remote ${REMOTE_EXIT}\nremote stderr:\n${REMOTE_ERR}")
  endif()
  if(NOT LOCAL_OUT STREQUAL REMOTE_OUT)
    die("[${LABEL}] stdout differs between local and remote")
  endif()
  if(NOT LOCAL_ERR STREQUAL REMOTE_ERR)
    die("[${LABEL}] stderr differs between local and remote\n"
        "local:\n${LOCAL_ERR}\nremote:\n${REMOTE_ERR}")
  endif()
  if(NOT "${BATCH_JSON}" STREQUAL "")
    file(READ ${SCRATCH}/local.json LOCAL_JSON)
    file(READ ${SCRATCH}/remote.json REMOTE_JSON)
    if(NOT LOCAL_JSON STREQUAL REMOTE_JSON)
      die("[${LABEL}] --batch-json differs between local and remote")
    endif()
  endif()
endmacro()

#===---------------------------------------------------------------------===#
# Leg 1: cold daemon, full corpus.
#===---------------------------------------------------------------------===#

start_daemon(cold --store-dir=${STORE}
             --metrics-json=${SCRATCH}/metrics_cold.json)

foreach(EMIT ${EMITS})
  check_invocation("batch-kernels --emit=${EMIT}" json
                   --batch-kernels --emit=${EMIT} --verify)
  if(DEFINED EXAMPLES_DIR AND NOT EXAMPLES_DIR STREQUAL "")
    check_invocation("batch=examples --emit=${EMIT}" json
                     --batch=${EXAMPLES_DIR} --emit=${EMIT} --verify)
  endif()
endforeach()
check_invocation("single loop7" "" -k loop7 --verify)
check_invocation("diagnostics" "" -k nosuchkernel)

# Remember one remote output for the warm-restart diff.
execute_process(COMMAND ${SDSPC} --remote=${SOCK} --batch-kernels
                        --emit=schedule --verify
                RESULT_VARIABLE COLD_EXIT
                OUTPUT_VARIABLE COLD_OUT
                ERROR_VARIABLE COLD_ERR)
if(NOT COLD_EXIT EQUAL 0)
  die("cold reference run failed (exit ${COLD_EXIT}):\n${COLD_ERR}")
endif()

stop_daemon(cold)

#===---------------------------------------------------------------------===#
# Leg 2: warm restart over the same store directory.  The new daemon's
# memory tier is empty; only the persistent disk store can answer
# without recomputing.
#===---------------------------------------------------------------------===#

start_daemon(warm --store-dir=${STORE}
             --metrics-json=${SCRATCH}/metrics_warm.json)

execute_process(COMMAND ${SDSPC} --remote=${SOCK} --batch-kernels
                        --emit=schedule --verify
                RESULT_VARIABLE WARM_EXIT
                OUTPUT_VARIABLE WARM_OUT
                ERROR_VARIABLE WARM_ERR)
if(NOT WARM_EXIT EQUAL 0)
  die("warm-restart run failed (exit ${WARM_EXIT}):\n${WARM_ERR}")
endif()
if(NOT WARM_OUT STREQUAL COLD_OUT OR NOT WARM_ERR STREQUAL COLD_ERR)
  die("warm-restart output differs from the cold run")
endif()

stop_daemon(warm)

file(READ ${SCRATCH}/metrics_cold.json COLD_METRICS)
file(READ ${SCRATCH}/metrics_warm.json WARM_METRICS)
if(NOT "$ENV{SDSP_DISABLE_ARTIFACT_CACHE}" MATCHES "^0?$")
  if("${COLD_METRICS}${WARM_METRICS}" MATCHES
     "\"(cache\\.hits|store\\.disk\\.hits|store\\.disk\\.writes)\": [1-9]")
    die("a daemon used a cache tier with the cache disabled: "
        "${CMAKE_MATCH_0}")
  endif()
elseif(NOT WARM_METRICS MATCHES "\"store\\.disk\\.hits\": [1-9]")
  die("restarted daemon served nothing from the disk store:\n"
      "${WARM_METRICS}")
endif()
if(NOT WARM_METRICS MATCHES "\"store\\.disk\\.corrupt\": 0")
  die("restarted daemon rejected persisted objects as corrupt:\n"
      "${WARM_METRICS}")
endif()

cleanup()
message(STATUS "remote determinism: all invocations byte-identical, "
               "store counters as the cache setting requires")
