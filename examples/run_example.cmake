# Runs one example binary for ctest: passes when it exits 0 and prints
# something on stdout.
#   cmake -DEXAMPLE=<binary> [-DEXAMPLE_ARGS=<arg;...>] -P run_example.cmake
execute_process(COMMAND ${EXAMPLE} ${EXAMPLE_ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
if(out STREQUAL "")
  message(FATAL_ERROR "${EXAMPLE} printed nothing on stdout")
endif()
