# `hp_sched schedule --algo heft` on an independent-task instance honours
# --rank: min and avg rank give different schedules, and fifo (which has no
# HEFT meaning) falls back to avg.
#
#   cmake -DHP_SCHED=<hp_sched> -DWORK_DIR=<dir> -P cli_rank.cmake

foreach(var HP_SCHED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_rank: pass -D${var}=...")
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

set(instance ${WORK_DIR}/independent.hpi)
hp_run(ignored generate --kind cholesky --tiles 6 --independent
       --out ${instance})
foreach(rank min avg fifo)
  hp_run(${rank} schedule --in ${instance} --cpus 20 --gpus 4 --algo heft
         --rank ${rank})
endforeach()
if("${min}" STREQUAL "${avg}")
  message(FATAL_ERROR "cli_rank: --rank min and --rank avg gave the same "
                      "HEFT schedule:\n${min}")
endif()
if(NOT "${fifo}" STREQUAL "${avg}")
  message(FATAL_ERROR "cli_rank: --rank fifo did not fall back to avg:\n"
                      "${fifo}\nvs\n${avg}")
endif()
