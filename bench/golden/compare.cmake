# Run one bench and compare its stdout with a committed golden file:
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden file> -P compare.cmake
#
# Fails with both texts when they differ. When a change moves a printed
# cell on purpose, regenerate the golden from the bench's own stdout.
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${BENCH} stdout differs from ${GOLDEN}\n"
                      "--- golden\n${expected}\n--- actual\n${actual}")
endif()
