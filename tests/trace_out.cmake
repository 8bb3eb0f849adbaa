# ctest script for the `trace_out_*` tests (registered in
# tests/CMakeLists.txt). A binary that runs harness epochs and is given
# --trace-out must write their decision trace there: exit 0 and leave a
# non-empty file that scripts/validate_trace.py --trace accepts. With
# REJECT set, the binary runs no harness epochs and must instead exit 1
# naming --trace-out. ARGS shrinks the run.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE ${OUT})
execute_process(
  COMMAND ${BINARY} ${args} --trace-out=${OUT} --log off
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output)
if(REJECT)
  if(NOT run_result STREQUAL "1")
    message(FATAL_ERROR
            "--trace-out gave exit ${run_result}, not 1:\n${run_output}")
  endif()
  if(NOT run_output MATCHES "--trace-out")
    message(FATAL_ERROR
            "exit ${run_result} without naming --trace-out:\n${run_output}")
  endif()
  return()
endif()
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "run failed (${run_result}):\n${run_output}")
endif()
if(NOT EXISTS ${OUT})
  message(FATAL_ERROR "--trace-out=${OUT} was not written")
endif()
file(SIZE ${OUT} trace_bytes)
if(trace_bytes EQUAL 0)
  message(FATAL_ERROR "--trace-out=${OUT} is empty")
endif()
execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} --trace ${OUT}
  RESULT_VARIABLE validate_result
  OUTPUT_VARIABLE validate_output
  ERROR_VARIABLE validate_output)
if(NOT validate_result EQUAL 0)
  message(FATAL_ERROR
          "validate_trace.py failed (${validate_result}):\n${validate_output}")
endif()
