# Kills `rr_cli run --checkpoint-every` with SIGKILL at several delays and
# resumes from whatever checkpoint is on disk. The file must always parse
# (a leftover .tmp is ignored), and the resumed run must reach the hash of
# the uninterrupted run. Periodic saves are written behind the stepping
# loop and fire every few rounds here, so most kills land while a write
# is in flight. One process runs at a time.
#
#   cmake -DRR_CLI=... -DWORK=... -P crash_consistency.cmake

set(rounds 4000)
math(EXPR end "${rounds} + 1")
set(run_flags run --topo torus --size 256 --k 4096 --shards 2)
set(ckpt ${WORK}/crash.ckpt)
file(MAKE_DIRECTORY ${WORK})

# Runs rr_cli with ARGN; sets `hash` (and `t` when the run resumed) in the
# caller's scope, and fails the test unless rr_cli exits 0.
function(rr_cli_run what)
  execute_process(COMMAND ${RR_CLI} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${what} exited with ${status}:\n${out}${err}")
  endif()
  string(REGEX MATCH "hash=([0-9a-f]+)" _ "${out}")
  set(hash ${CMAKE_MATCH_1} PARENT_SCOPE)
  string(REGEX MATCH "resumed [^\n]* at t=([0-9]+)" _ "${out}")
  set(t ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

rr_cli_run("uninterrupted run" ${run_flags} --rounds ${end})
set(reference ${hash})

set(killed 0)
foreach(delay 0.3 0.6 0.9 1.2 1.6)
  file(REMOVE ${ckpt} ${ckpt}.tmp)
  execute_process(COMMAND timeout -s KILL ${delay} ${RR_CLI} ${run_flags}
                          --rounds ${rounds} --checkpoint-every 5
                          --checkpoint ${ckpt}
                  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE status)
  if(status MATCHES "killed|137")
    math(EXPR killed "${killed} + 1")
  elseif(NOT status STREQUAL "0")
    message(FATAL_ERROR "run killed at ${delay}s exited with ${status}")
  endif()
  if(NOT EXISTS ${ckpt})
    message(STATUS "kill at ${delay}s: before the first save")
    continue()
  endif()
  # The probe resumes one round: rr_cli exits 2 on a document that does
  # not parse, and prints the round the file holds.
  rr_cli_run("resume of the file left by the kill at ${delay}s"
             run --resume ${ckpt} --shards 2 --rounds 1)
  set(from ${t})
  if(from LESS rounds)
    math(EXPR rest "${end} - ${from}")
    rr_cli_run("resumed run from t=${from}"
               run --resume ${ckpt} --shards 2 --rounds ${rest})
  endif()
  if(NOT hash STREQUAL reference)
    message(FATAL_ERROR "kill at ${delay}s: the run resumed from t=${from} "
                        "reached hash ${hash}, the uninterrupted run ${reference}")
  endif()
  message(STATUS "kill at ${delay}s (${status}): resumed from t=${from}, hash ${hash}")
endforeach()
if(killed EQUAL 0)
  message(FATAL_ERROR "every run finished before its kill; nothing was tested")
endif()
file(REMOVE_RECURSE ${WORK})
