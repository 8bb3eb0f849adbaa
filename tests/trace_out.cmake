# ctest script for the `trace_out_*` tests (registered in
# tests/CMakeLists.txt). A binary that runs harness epochs and is given
# --trace-out must write their decision trace there: exit 0 and leave a
# non-empty file that scripts/validate_trace.py --trace accepts. With MODE
# JOBS the binary runs again at --jobs 3 and must write a byte-identical
# file. With MODE REJECT, the binary runs no harness epochs and must
# instead exit 1 naming --trace-out. ARGS shrinks the run.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE ${OUT} ${OUT}.jobs3)
execute_process(
  COMMAND ${BINARY} ${args} --trace-out=${OUT} --log off
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output)
if(MODE STREQUAL "REJECT")
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
if(MODE STREQUAL "JOBS")
  execute_process(
    COMMAND ${BINARY} ${args} --jobs 3 --trace-out=${OUT}.jobs3 --log off
    RESULT_VARIABLE run_result
    OUTPUT_VARIABLE run_output
    ERROR_VARIABLE run_output)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "--jobs 3 run failed (${run_result}):\n${run_output}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${OUT}.jobs3
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "the --jobs 3 trace ${OUT}.jobs3 differs from the "
                        "--jobs 1 trace ${OUT}")
  endif()
endif()
