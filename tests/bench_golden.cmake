# Runs BENCH with RR_BENCH_SCALE=SCALE and compares its stdout byte for
# byte with GOLDEN; on a mismatch the output is kept at OUT for diffing.
#
#   cmake -DBENCH=... -DSCALE=0.25 -DGOLDEN=... -DOUT=... -P bench_golden.cmake

execute_process(COMMAND ${CMAKE_COMMAND} -E env RR_BENCH_SCALE=${SCALE} ${BENCH}
                OUTPUT_VARIABLE output
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ ${GOLDEN} golden)
if(NOT output STREQUAL golden)
  file(WRITE ${OUT} "${output}")
  message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN} (kept at ${OUT})")
endif()
