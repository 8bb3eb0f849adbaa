# ctest script for `abl_regret_fit_unfittable_sweep` (registered in
# tests/CMakeLists.txt). ARGS give a budget sweep with fewer than two
# distinct positive horizons T_C, which admits no log-log slope: the bench
# must print "n/a" for both slopes of each sweep and exit 0, not stop at
# the first sweep's slope fit.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BINARY} ${args} --log off
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "exit ${run_result}, not 0:\n${run_output}")
endif()
foreach(sweep dynamic stable)
  if(NOT run_output MATCHES
     "log-log growth slopes, ${sweep}[^\n]*\n[^\n]*\n[^\n]*\n\\| regret +\\| n/a +\\|[^\n]*\n\\| fit +\\| n/a +\\|")
    message(FATAL_ERROR "no n/a slope table for the ${sweep} sweep:\n${run_output}")
  endif()
endforeach()
