# ctest driver for the `json_out_unwritable_*` tests (registered in
# tests/CMakeLists.txt): a bench given a --json-out path it cannot write
# must exit 1 naming the path, instead of printing its results, exiting 0
# and leaving run_benches.sh a stale BENCH_*.json. ARGS shrinks the run, so
# a bench that ignored the path would still end quickly.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BINARY} ${args} --json-out=${OUT} --log off
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output)
if(NOT run_result STREQUAL "1")
  message(FATAL_ERROR
          "--json-out=${OUT} gave exit ${run_result}, not 1:\n${run_output}")
endif()
string(FIND "${run_output}" "${OUT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "exit ${run_result} without naming ${OUT}:\n${run_output}")
endif()
