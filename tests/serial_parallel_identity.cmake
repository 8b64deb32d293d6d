# A parallel bench must print exactly what its serial run prints.
#
#   cmake -DBENCH=<bench executable> -DWORK_DIR=<dir> [-DJOBS=-j2]
#         -P serial_parallel_identity.cmake
#
# Runs BENCH with `serial` and with JOBS (default -j2), writes the outputs
# to WORK_DIR/serial.txt and WORK_DIR/parallel.txt and compares them byte
# for byte.

foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serial_parallel_identity: pass -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED JOBS)
  set(JOBS -j2)
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_bench mode out)
  execute_process(COMMAND ${BENCH} ${mode}
                  RESULT_VARIABLE rc OUTPUT_FILE ${out} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${mode} exited ${rc}\n${err}")
  endif()
endfunction()

run_bench(serial ${WORK_DIR}/serial.txt)
run_bench(${JOBS} ${WORK_DIR}/parallel.txt)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/serial.txt ${WORK_DIR}/parallel.txt
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "serial_parallel_identity: ${BENCH} ${JOBS} printed "
                      "other output than serial; see ${WORK_DIR}")
endif()
