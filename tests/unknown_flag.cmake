# ctest driver for `unknown_flag_rejected` (registered in
# tests/CMakeLists.txt): a binary given a flag it never reads must exit
# non-zero, naming the flag, instead of running with the flag ignored.
execute_process(
  COMMAND ${BINARY} --bogus-flag 7 --log off
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output)
if(run_result EQUAL 0)
  message(FATAL_ERROR "--bogus-flag was accepted:\n${run_output}")
endif()
if(NOT run_output MATCHES "unknown flag: --bogus-flag")
  message(FATAL_ERROR
          "exit ${run_result} without naming --bogus-flag:\n${run_output}")
endif()
