# ctest driver for the `unknown_flag_rejected*` tests (registered in
# tests/CMakeLists.txt): a binary given a flag it never reads must exit 1,
# naming the flag, instead of running with the flag ignored. Exit 1 is
# obs::run_main's caught error, printed as "<binary> failed: <what>"; an
# uncaught exception aborts the process and fails.
get_filename_component(binary_name ${BINARY} NAME)
execute_process(
  COMMAND ${BINARY} --bogus-flag 7 --log off
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output)
if(NOT run_result STREQUAL "1")
  message(FATAL_ERROR
          "--bogus-flag gave exit ${run_result}, not 1:\n${run_output}")
endif()
if(NOT run_output MATCHES "${binary_name} failed: unknown flag: --bogus-flag")
  message(FATAL_ERROR "exit ${run_result} without \"${binary_name} failed: "
                      "unknown flag: --bogus-flag\":\n${run_output}")
endif()
