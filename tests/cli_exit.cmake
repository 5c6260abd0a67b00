# Runs `RR_CLI SUBCOMMAND --graph GRAPH` and checks that it exits with
# status EXIT (a signal is not an exit status) and that stderr matches
# MESSAGE.
#
#   cmake -DRR_CLI=... -DSUBCOMMAND=run "-DGRAPH=tree 1" -DEXIT=2
#         "-DMESSAGE=invalid graph parameters" -P cli_exit.cmake

execute_process(COMMAND ${RR_CLI} ${SUBCOMMAND} --graph ${GRAPH}
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "rr_cli ${SUBCOMMAND} --graph '${GRAPH}' ended with "
                      "'${status}', expected exit ${EXIT}\n${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
  message(FATAL_ERROR "stderr does not match '${MESSAGE}':\n${err}")
endif()
