# Runs `RR_CLI SUBCOMMAND [--graph GRAPH] [EXTRA...]` and checks that it
# exits with status EXIT (a signal is not an exit status) and that stderr
# matches MESSAGE. EXTRA is one string of space-separated arguments.
#
#   cmake -DRR_CLI=... -DSUBCOMMAND=run "-DGRAPH=tree 1" -DEXIT=2
#         "-DMESSAGE=invalid graph parameters" -P cli_exit.cmake
#   cmake -DRR_CLI=... -DSUBCOMMAND=run "-DEXTRA=--graph-image x.rrg --shards 4"
#         -DEXIT=2 "-DMESSAGE=--shards does not apply" -P cli_exit.cmake

set(args ${SUBCOMMAND})
if(DEFINED GRAPH)
  list(APPEND args --graph ${GRAPH})
endif()
separate_arguments(extra UNIX_COMMAND "${EXTRA}")
list(APPEND args ${extra})
execute_process(COMMAND ${RR_CLI} ${args}
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "rr_cli ${args} ended with '${status}', expected exit "
                      "${EXIT}\n${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
  message(FATAL_ERROR "stderr does not match '${MESSAGE}':\n${err}")
endif()
