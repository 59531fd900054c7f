# Test driver: run smoke_app with the observability switches and
# assert that both artifacts are valid JSON (python3 -m json.tool)
# and that the APP1 trace stays within its 5 MB size budget.
# Invoked by the obs_artifacts_are_valid_json ctest entry with
# -DSMOKE_APP=... -DPYTHON=... -DOUT_DIR=...

set(report "${OUT_DIR}/smoke_report.json")
set(trace "${OUT_DIR}/smoke_trace.json")

execute_process(
    COMMAND "${SMOKE_APP}" APP1 "--report=${report}" "--trace=${trace}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smoke_app failed with status ${rc}")
endif()

foreach(artifact IN ITEMS "${report}" "${trace}")
    if(NOT EXISTS "${artifact}")
        message(FATAL_ERROR "missing artifact ${artifact}")
    endif()
    execute_process(
        COMMAND "${PYTHON}" -m json.tool "${artifact}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${artifact} is not valid JSON")
    endif()
endforeach()

# The exec slices count their CUSTs instead of one instant per CUST,
# which keeps the four-mode APP1 trace near 1 MB.
set(max_trace_bytes 5000000)
file(SIZE "${trace}" trace_bytes)
if(trace_bytes GREATER max_trace_bytes)
    message(FATAL_ERROR
            "${trace} is ${trace_bytes} bytes, over the "
            "${max_trace_bytes}-byte budget")
endif()
