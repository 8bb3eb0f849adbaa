# ctest driver for the harness_matrix_seed* checks (registered in
# tests/CMakeLists.txt): dump one seed's half of the harness matrix
# (tools/harness_dump) at thread budgets 1 and 4 and require the two dumps
# to be byte-identical. Fails on a dumper error, a dump without its 48
# cells, or any difference.
file(MAKE_DIRECTORY ${WORKDIR})
foreach(budget 1 4)
  set(dump ${WORKDIR}/seed${SEED}-budget${budget}.txt)
  execute_process(
    COMMAND ${DUMPER} ${budget} ${SEED}
    OUTPUT_FILE ${dump}
    ERROR_VARIABLE dump_error
    RESULT_VARIABLE dump_result)
  if(NOT dump_result EQUAL 0)
    message(FATAL_ERROR
            "harness_dump ${budget} ${SEED} failed (${dump_result}):\n"
            "${dump_error}")
  endif()
  file(STRINGS ${dump} cells REGEX "^== ")
  list(LENGTH cells num_cells)
  if(NOT num_cells EQUAL 48)
    message(FATAL_ERROR "${dump} holds ${num_cells} cells, expected 48")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORKDIR}/seed${SEED}-budget1.txt ${WORKDIR}/seed${SEED}-budget4.txt
  RESULT_VARIABLE compare_result)
if(NOT compare_result EQUAL 0)
  message(FATAL_ERROR
          "seed ${SEED}: the harness matrix at thread budget 4 differs from "
          "budget 1; diff ${WORKDIR}/seed${SEED}-budget1.txt against "
          "${WORKDIR}/seed${SEED}-budget4.txt")
endif()
file(STRINGS ${WORKDIR}/seed${SEED}-budget1.txt lines)
list(LENGTH lines num_lines)
message(STATUS "seed ${SEED}: ${num_lines} lines identical at budgets 1, 4")
