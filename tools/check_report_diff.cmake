# Test driver: exercise report_diff's exit-status contract. Two
# identical run reports must compare clean (exit 0); a baseline with
# an artificially better makespan must trip the regression gate
# (exit 1). In a micro_perf metrics document, doubled wall time is
# advisory (exit 0) and doubled CPU time gates (exit 1). Invoked by
# report_diff_gates_regressions with
# -DSMOKE_APP=... -DREPORT_DIFF=... -DPYTHON=... -DOUT_DIR=...

set(report "${OUT_DIR}/diff_report.json")

execute_process(
    COMMAND "${SMOKE_APP}" APP1 "--report=${report}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smoke_app failed with status ${rc}")
endif()

# Identical documents: no regression.
execute_process(
    COMMAND "${REPORT_DIFF}" "${report}" "${report}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "report_diff flagged identical reports (status ${rc})")
endif()

# Shrink the baseline's makespan by 50%: the current report now reads
# as a large cycle regression and must exit 1.
execute_process(
    COMMAND "${PYTHON}" -c "
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
doc['totals']['makespan_cycles'] = \
    int(doc['totals']['makespan_cycles'] * 0.5)
json.dump(doc, open(sys.argv[2], 'w'), indent=2)
" "${report}" "${OUT_DIR}/diff_baseline.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not fabricate the baseline report")
endif()

execute_process(
    COMMAND "${REPORT_DIFF}" "${OUT_DIR}/diff_baseline.json"
            "${report}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "report_diff missed a 2x makespan regression "
            "(status ${rc}, expected 1)")
endif()

# A fabricated micro_perf document and two variants of it: one with
# the wall time doubled, one with the CPU time doubled.
execute_process(
    COMMAND "${PYTHON}" -c "
import json, sys
doc = {'schema': 'stitch-bench', 'version': 1, 'bench': 'micro_perf',
       'metrics': {'BM_CompileKernel/real_time_ns': 2.5e6,
                   'BM_CompileKernel/cpu_time_ns': 2.4e6}}
json.dump(doc, open(sys.argv[1], 'w'), indent=2)
for metric, path in (('real_time_ns', sys.argv[2]),
                     ('cpu_time_ns', sys.argv[3])):
    slow = json.loads(json.dumps(doc))
    slow['metrics']['BM_CompileKernel/' + metric] *= 2
    json.dump(slow, open(path, 'w'), indent=2)
" "${OUT_DIR}/diff_micro_base.json" "${OUT_DIR}/diff_micro_wall.json"
    "${OUT_DIR}/diff_micro_cpu.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not fabricate the micro_perf documents")
endif()

execute_process(
    COMMAND "${REPORT_DIFF}" "${OUT_DIR}/diff_micro_base.json"
            "${OUT_DIR}/diff_micro_wall.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "report_diff gated on a 2x wall-time change "
            "(status ${rc}, expected 0: wall time is advisory)")
endif()

execute_process(
    COMMAND "${REPORT_DIFF}" "${OUT_DIR}/diff_micro_base.json"
            "${OUT_DIR}/diff_micro_cpu.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "report_diff missed a 2x CPU-time regression "
            "(status ${rc}, expected 1)")
endif()
