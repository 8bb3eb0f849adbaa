# ctest driver for the `obs_artifacts` check (registered in
# tests/CMakeLists.txt): run a small seeded quickstart with every
# observability flag — trace, metrics, profile, run manifest, invariant
# monitor, determinism digests — then validate all artifacts with
# scripts/validate_trace.py. Fails on any non-zero exit.
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(
  COMMAND ${QUICKSTART}
    --epochs 3 --clients 8 --samples 300 --scale 0.06 --seed 3 --log warn
    --trace-out=${WORKDIR}/trace.jsonl
    --metrics-out=${WORKDIR}/metrics.json
    --profile-out=${WORKDIR}/profile.json
    --manifest-out=${WORKDIR}/manifest.json
    --monitor --digest
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "quickstart failed (${run_result}):\n${run_output}")
endif()

execute_process(
  COMMAND ${PYTHON} ${VALIDATOR}
    --trace ${WORKDIR}/trace.jsonl
    --metrics ${WORKDIR}/metrics.json
    --profile ${WORKDIR}/profile.json
    --manifest ${WORKDIR}/manifest.json
  RESULT_VARIABLE validate_result
  OUTPUT_VARIABLE validate_output
  ERROR_VARIABLE validate_output)
if(NOT validate_result EQUAL 0)
  message(FATAL_ERROR
          "validate_trace.py failed (${validate_result}):\n${validate_output}")
endif()

# The monitor must stay silent on a healthy seeded run, and a clean exit
# must write a clean manifest.
file(READ ${WORKDIR}/manifest.json manifest_content)
if(NOT manifest_content MATCHES "\"clean\":true")
  message(FATAL_ERROR "manifest not marked clean:\n${manifest_content}")
endif()
file(READ ${WORKDIR}/trace.jsonl trace_content)
if(trace_content MATCHES "\"type\":\"anomaly\"")
  message(FATAL_ERROR
          "monitor fired on a healthy seeded run:\n${trace_content}")
endif()
message(STATUS "${validate_output}")
