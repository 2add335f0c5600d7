# End-to-end smoke test for the saga CLI, run by ctest in script mode:
#   cmake -DSAGA_CLI=<path-to-saga> -DWORK_DIR=<scratch-dir> -P cli_smoke.cmake
# Exercises: list, generate -> schedule -> validate, and compare.

if(NOT SAGA_CLI)
  message(FATAL_ERROR "pass -DSAGA_CLI=<path to the saga binary>")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

function(saga_step name)
  execute_process(COMMAND ${SAGA_CLI} ${ARGN}
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "step '${name}' failed (exit ${rv})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${name}_output "${out}" PARENT_SCOPE)
endfunction()

# 1. saga list must run, exit 0, and mention a known dataset and scheduler.
saga_step(list list)
if(NOT list_output MATCHES "blast")
  message(FATAL_ERROR "saga list does not mention the blast dataset:\n${list_output}")
endif()
if(NOT list_output MATCHES "HEFT")
  message(FATAL_ERROR "saga list does not mention the HEFT scheduler:\n${list_output}")
endif()

# 2. generate an instance, write it to disk.
execute_process(COMMAND ${SAGA_CLI} generate blast 0
  RESULT_VARIABLE rv
  OUTPUT_FILE ${WORK_DIR}/instance.txt
  ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "saga generate blast 0 failed (exit ${rv}):\n${err}")
endif()

# 3. schedule it with HEFT; the schedule (plus Gantt) goes to a file.
execute_process(COMMAND ${SAGA_CLI} schedule HEFT ${WORK_DIR}/instance.txt
  RESULT_VARIABLE rv
  OUTPUT_FILE ${WORK_DIR}/schedule.txt
  ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "saga schedule HEFT failed (exit ${rv}):\n${err}")
endif()

# 4. validate the schedule against the instance.
saga_step(validate validate ${WORK_DIR}/instance.txt ${WORK_DIR}/schedule.txt)
if(NOT validate_output MATCHES "^valid")
  message(FATAL_ERROR "saga validate did not report a valid schedule:\n${validate_output}")
endif()

# 4b. timed repeat mode must run and report throughput on stderr.
execute_process(COMMAND ${SAGA_CLI} schedule HEFT ${WORK_DIR}/instance.txt --repeat 5 --time
  RESULT_VARIABLE rv
  OUTPUT_FILE ${WORK_DIR}/schedule_timed.txt
  ERROR_VARIABLE timed_err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "saga schedule --repeat --time failed (exit ${rv}):\n${timed_err}")
endif()
if(NOT timed_err MATCHES "schedules/sec")
  message(FATAL_ERROR "saga schedule --time did not report throughput:\n${timed_err}")
endif()

# 4c. randomized schedulers get the CLI's fixed default seed: their bytes
# are pinned (on an in_trees instance, where both WBA's and GA's schedules
# change with the seed).
execute_process(COMMAND ${SAGA_CLI} generate in_trees 0
  RESULT_VARIABLE rv
  OUTPUT_FILE ${WORK_DIR}/in_trees.txt
  ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "saga generate in_trees 0 failed (exit ${rv}):\n${err}")
endif()
function(pin_schedule spec expected)
  execute_process(COMMAND ${SAGA_CLI} schedule ${spec} ${WORK_DIR}/in_trees.txt
    RESULT_VARIABLE rv
    OUTPUT_FILE ${WORK_DIR}/pinned_schedule.txt
    ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "saga schedule ${spec} failed (exit ${rv}):\n${err}")
  endif()
  file(SHA256 ${WORK_DIR}/pinned_schedule.txt actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "saga schedule ${spec} output changed: sha256 ${actual}, pinned ${expected}")
  endif()
endfunction()
pin_schedule("WBA" "01f899e3d95ae510c57b35b0812431fcecbc087f187ee900a768f58ff734060a")
pin_schedule("GA?gens=5" "e6c82c5311a53f7c0528296280f73edb0855c8bbd7dee17d226ca9283a4b5735")

# 5. compare a couple of schedulers on the same instance.
saga_step(compare compare ${WORK_DIR}/instance.txt HEFT MinMin)

# 5b. dataset registry: tag enumeration and parameterized spec strings.
saga_step(list_datasets list --datasets)
if(NOT list_datasets_output MATCHES "table2")
  message(FATAL_ERROR "saga list --datasets does not mention the table2 tag:\n${list_datasets_output}")
endif()
saga_step(list_datasets_tag list --datasets workflow)
if(NOT list_datasets_tag_output MATCHES "montage")
  message(FATAL_ERROR "saga list --datasets workflow does not mention montage:\n${list_datasets_tag_output}")
endif()
execute_process(COMMAND ${SAGA_CLI} generate "montage?n=12&ccr=1" 0
  RESULT_VARIABLE rv
  OUTPUT_FILE ${WORK_DIR}/spec_instance.txt
  ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "saga generate with a dataset spec string failed (exit ${rv}):\n${err}")
endif()
execute_process(COMMAND ${SAGA_CLI} schedule HEFT ${WORK_DIR}/spec_instance.txt
  RESULT_VARIABLE rv
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "saga schedule on a spec-generated instance failed (exit ${rv}):\n${err}")
endif()
execute_process(COMMAND ${SAGA_CLI} generate no_such_dataset 0 RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
if(rv EQUAL 0)
  message(FATAL_ERROR "saga generate accepted an unknown dataset")
endif()

# 6. unknown subcommands must fail loudly, not exit 0.
execute_process(COMMAND ${SAGA_CLI} no-such-command RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
if(rv EQUAL 0)
  message(FATAL_ERROR "saga accepted an unknown subcommand")
endif()

message(STATUS "cli_smoke: all steps passed")
