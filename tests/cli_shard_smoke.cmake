# End-to-end smoke of sharded, resumable runs through the CLI, run by ctest
# in script mode:
#   cmake -DSAGA_CLI=<path> -DWORK_DIR=<scratch> -DSPECS_DIR=<examples/specs> \
#         -P cli_shard_smoke.cmake
# Exercises: a monolithic `saga run` with csv/json sinks, a 3-shard
# `saga run --shard i/3 --out` decomposition, `saga merge` back to
# byte-identical artifacts, torn-record crash recovery via `--resume`, and
# the usage/error contracts of the new flags.

foreach(var SAGA_CLI WORK_DIR SPECS_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(saga_expect_success name)
  execute_process(COMMAND ${SAGA_CLI} ${ARGN}
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "step '${name}' failed (exit ${rv})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${name}_output "${out}" PARENT_SCOPE)
endfunction()

function(saga_expect_failure name expected_code stderr_pattern)
  execute_process(COMMAND ${SAGA_CLI} ${ARGN}
    RESULT_VARIABLE rv
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(rv EQUAL 0)
    message(FATAL_ERROR "step '${name}' unexpectedly succeeded")
  endif()
  if(NOT rv EQUAL ${expected_code})
    message(FATAL_ERROR "step '${name}' exited ${rv}, expected ${expected_code}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "${stderr_pattern}")
    message(FATAL_ERROR "step '${name}' stderr does not match '${stderr_pattern}':\n${err}")
  endif()
endfunction()

function(expect_identical a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ (expected byte-identical)")
  endif()
endfunction()

set(spec ${SPECS_DIR}/fig02_tiny.json)

# 1. Monolithic golden run with csv + json artifacts.
saga_expect_success(mono run ${spec}
  --set csv=${WORK_DIR}/mono.csv --set json=${WORK_DIR}/mono.json)
if(NOT EXISTS ${WORK_DIR}/mono.csv OR NOT EXISTS ${WORK_DIR}/mono.json)
  message(FATAL_ERROR "monolithic run did not write its csv/json artifacts")
endif()

# 2. The same experiment as three shards, each persisted to a result store.
foreach(i RANGE 1 3)
  saga_expect_success(shard_${i} run ${spec} --shard ${i}/3 --out ${WORK_DIR}/store_${i})
  if(NOT EXISTS ${WORK_DIR}/store_${i}/spec.json)
    message(FATAL_ERROR "shard ${i} store has no spec.json")
  endif()
  if(NOT shard_${i}_output MATCHES "shard ${i}/3")
    message(FATAL_ERROR "shard ${i} run did not report its shard:\n${shard_${i}_output}")
  endif()
endforeach()

# 3. Merge recombines the shards into byte-identical artifacts.
saga_expect_success(merge merge
  ${WORK_DIR}/store_1 ${WORK_DIR}/store_2 ${WORK_DIR}/store_3
  --csv ${WORK_DIR}/merged.csv --json ${WORK_DIR}/merged.json)
expect_identical(${WORK_DIR}/mono.csv ${WORK_DIR}/merged.csv)
expect_identical(${WORK_DIR}/mono.json ${WORK_DIR}/merged.json)

# 4. Crash recovery: tear the trailing bytes off the run's segment (its last
# record), then --resume re-runs only that cell and converges to the same
# artifacts; a later --resume finds nothing to do.
saga_expect_success(full run ${spec} --out ${WORK_DIR}/full)
file(GLOB segments ${WORK_DIR}/full/cells/*.jsonl)
list(LENGTH segments segment_count)
if(NOT segment_count EQUAL 1)
  message(FATAL_ERROR "expected one segment under ${WORK_DIR}/full/cells, found: ${segments}")
endif()
list(GET segments 0 victim)
file(READ ${victim} record)
string(LENGTH "${record}" record_len)
math(EXPR torn_len "${record_len} - 9")
string(SUBSTRING "${record}" 0 ${torn_len} torn)
file(WRITE ${victim} "${torn}")
saga_expect_success(resume run ${spec} --out ${WORK_DIR}/full --resume
  --set csv=${WORK_DIR}/resumed.csv --set json=${WORK_DIR}/resumed.json)
if(NOT resume_output MATCHES "ran 1 of")
  message(FATAL_ERROR "resume did not re-run exactly the torn cell:\n${resume_output}")
endif()
if(NOT resume_output MATCHES "1 torn record")
  message(FATAL_ERROR "resume did not report the torn record:\n${resume_output}")
endif()
expect_identical(${WORK_DIR}/mono.csv ${WORK_DIR}/resumed.csv)
expect_identical(${WORK_DIR}/mono.json ${WORK_DIR}/resumed.json)
# The torn tail stays on disk, but a valid record now covers its cell: a
# second --resume runs nothing and reports no torn record.
saga_expect_success(resume_again run ${spec} --out ${WORK_DIR}/full --resume)
if(NOT resume_again_output MATCHES "ran 0 of")
  message(FATAL_ERROR "second resume re-ran cells:\n${resume_again_output}")
endif()
if(resume_again_output MATCHES "torn record")
  message(FATAL_ERROR "second resume reported a repaired tear:\n${resume_again_output}")
endif()

# 5. Error contracts: usage errors exit 2, incomplete merges exit 1.
saga_expect_failure(bad_shard 2 "invalid shard" run ${spec} --shard 4/3 --out ${WORK_DIR}/x)
saga_expect_failure(shard_without_out 2 "needs --out" run ${spec} --shard 1/3)
saga_expect_failure(resume_without_out 2 "needs --out" run ${spec} --resume)
saga_expect_failure(merge_usage 2 "usage: saga merge" merge)
saga_expect_failure(merge_incomplete 1 "cells missing" merge ${WORK_DIR}/store_1)
saga_expect_failure(merge_not_a_store 1 "not a result store" merge ${WORK_DIR})

message(STATUS "cli_shard_smoke: all steps passed")
