# Byte-for-byte golden check of the metrics outputs of one fixed run.
#
#   cmake -DHP_SCHED=<hp_sched> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P metrics_golden.cmake
#
# Generates a 6-tile Cholesky DAG, runs `hp_sched report` (tick clock,
# critical path, Prometheus exposition, flamegraph) and `hp_sched trace`
# on it with 4 CPUs + 2 GPUs, and compares the report text (minus the
# `wrote <path>` lines), the .prom exposition and the trace JSON against
# the files in GOLDEN_DIR. The outputs stay in WORK_DIR for diffing; after
# an intended output change, copy them over the golden files.

foreach(var HP_SCHED GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "metrics_golden: pass -D${var}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK_DIR})

function(hp_run out_var)
  execute_process(COMMAND ${HP_SCHED} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hp_sched ${ARGN} exited ${rc}\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(graph ${WORK_DIR}/golden.hpg)
hp_run(ignored generate --kind cholesky --tiles 6 --out ${graph})
hp_run(report report --in ${graph} --cpus 4 --gpus 2 --algo hp --tick-clock
       --critical-path --metrics-out ${WORK_DIR}/report.prom
       --flame ${WORK_DIR}/report.folded)
string(REGEX REPLACE "wrote [^\n]*\n" "" report "${report}")
file(WRITE ${WORK_DIR}/report.txt "${report}")
hp_run(ignored trace --in ${graph} --cpus 4 --gpus 2 --algo hp
       --out ${WORK_DIR}/trace.json)

set(mismatches "")
foreach(name report.txt report.prom trace.json)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${GOLDEN_DIR}/${name} ${WORK_DIR}/${name}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    string(APPEND mismatches "\n  ${WORK_DIR}/${name} vs ${GOLDEN_DIR}/${name}")
  endif()
endforeach()
if(mismatches)
  message(FATAL_ERROR "metrics_golden: outputs differ from the golden files:"
                      "${mismatches}")
endif()
