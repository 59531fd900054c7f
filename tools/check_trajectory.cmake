# Test driver: the fast end of the bench-trajectory harness. Three
# cheap benches and one micro_perf benchmark emit --json metric
# documents, trajectory merges them, and the aggregate must be a valid
# stitch-bench-trajectory document naming every contributing bench.
# micro_perf times must be in nanoseconds, with CPU time next to wall
# time. Invoked by bench_trajectory_aggregates with -DTABLE3=...
# -DTABLE4=... -DFIG13=... -DMICRO_PERF=... -DTRAJECTORY=...
# -DPYTHON=... -DOUT_DIR=...

set(traj "${OUT_DIR}/trajectory_subset.json")
set(inputs "")
foreach(pair IN ITEMS
        "TABLE3:table3_accel_area" "TABLE4:table4_noc_timing"
        "FIG13:fig13_power_area")
    string(REPLACE ":" ";" pair "${pair}")
    list(GET pair 0 var)
    list(GET pair 1 name)
    set(out "${OUT_DIR}/traj_${name}.json")
    execute_process(
        COMMAND "${${var}}" "--json=${out}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} failed with status ${rc}")
    endif()
    if(NOT EXISTS "${out}")
        message(FATAL_ERROR "${name} wrote no --json document")
    endif()
    list(APPEND inputs "${out}")
endforeach()

# One short micro_perf benchmark (this libbenchmark takes a bare
# number of seconds for --benchmark_min_time).
set(out "${OUT_DIR}/traj_micro_perf.json")
execute_process(
    COMMAND "${MICRO_PERF}" --benchmark_filter=BM_CompileKernel
            --benchmark_min_time=0.05 "--json=${out}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "micro_perf failed with status ${rc}")
endif()
list(APPEND inputs "${out}")

execute_process(
    COMMAND "${TRAJECTORY}" "${traj}" ${inputs}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trajectory failed with status ${rc}")
endif()

execute_process(
    COMMAND "${PYTHON}" -c "
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc['schema'] == 'stitch-bench-trajectory', doc['schema']
for bench in ('table3_accel_area', 'table4_noc_timing',
              'fig13_power_area', 'micro_perf'):
    assert bench in doc['benches'], bench
    assert doc['benches'][bench], bench + ' has no metrics'
micro = doc['benches']['micro_perf']
# A kernel compile takes milliseconds: in nanoseconds that is > 1e5.
wall = micro['BM_CompileKernel/real_time_ns']
assert wall > 1e5, 'real_time_ns is not in nanoseconds: %r' % wall
assert 'BM_CompileKernel/cpu_time_ns' in micro, sorted(micro)
" "${traj}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trajectory aggregate failed validation")
endif()
