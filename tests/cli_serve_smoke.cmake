# End-to-end smoke of the scheduler-as-a-service daemon, run by ctest in
# script mode:
#   cmake -DSAGA_CLI=<path> -DSAGA_PROBE=<path> -DWORK_DIR=<scratch> \
#         -P cli_serve_smoke.cmake
# Exercises: `saga serve` on an ephemeral port (discovered via --port-file),
# driven over real TCP by saga_http_probe — /healthz, /v1/schedule (with a
# `saga generate --json` instance and with a dataset spec), /v1/compare,
# /metrics — plus the 4xx error contract (daemon stays up), byte-identical
# repeated responses, and a SIGTERM graceful drain that reports the served
# request count. Also checks that removed or out-of-range flags are usage
# errors.

foreach(var SAGA_CLI SAGA_PROBE WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

# Fails the smoke, first stopping whichever daemon is running (SIGTERM,
# then SIGKILL after 5 s) so that a failed run leaves no process behind.
function(fail msg)
  foreach(pid IN ITEMS ${DAEMON_PID} ${DAEMON2_PID})
    execute_process(COMMAND kill -TERM ${pid} ERROR_QUIET OUTPUT_QUIET)
    foreach(attempt RANGE 50)
      execute_process(COMMAND kill -0 ${pid} RESULT_VARIABLE alive ERROR_QUIET OUTPUT_QUIET)
      if(NOT alive EQUAL 0)
        break()
      endif()
      execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
    endforeach()
    if(alive EQUAL 0)
      execute_process(COMMAND kill -KILL ${pid} ERROR_QUIET OUTPUT_QUIET)
    endif()
  endforeach()
  message(FATAL_ERROR "${msg}")
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(saga_expect_success name)
  execute_process(COMMAND ${SAGA_CLI} ${ARGN}
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    fail("step '${name}' failed (exit ${rv})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${name}_output "${out}" PARENT_SCOPE)
endfunction()

# Issues one HTTP request through the probe; FATALs unless the exit code is
# `expect_rv` (0 = 2xx, 1 = anything else). The response body lands in
# ${name}_body (and in `outfile` when given, byte-exact).
function(probe name expect_rv method path body outfile)
  set(args ${PORT} ${method} ${path})
  if(body)
    list(APPEND args ${body})
  endif()
  if(outfile)
    list(APPEND args -o ${outfile})
  endif()
  execute_process(COMMAND ${SAGA_PROBE} ${args}
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rv EQUAL ${expect_rv})
    fail("probe '${name}' exited ${rv}, expected ${expect_rv}\nstderr:\n${err}\nbody:\n${out}")
  endif()
  if(outfile AND EXISTS ${outfile})
    file(READ ${outfile} out)
  endif()
  set(${name}_body "${out}" PARENT_SCOPE)
  set(${name}_status "${err}" PARENT_SCOPE)
endfunction()

function(expect_identical a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    fail("${a} and ${b} differ (expected byte-identical)")
  endif()
endfunction()

# 1. Fixtures: a wire-codec instance from `saga generate --json`, and
# request bodies for the daemon.
saga_expect_success(gen_json generate chains 0 7 --json)
file(WRITE ${WORK_DIR}/instance.json "${gen_json_output}")
# The JSON instance feeds straight back into format-sniffing commands.
saga_expect_success(sched_json schedule HEFT ${WORK_DIR}/instance.json)

file(READ ${WORK_DIR}/instance.json instance_json)
file(WRITE ${WORK_DIR}/schedule_req.json
  "{\"scheduler\": \"HEFT\", \"instance\": ${instance_json}}")
file(WRITE ${WORK_DIR}/schedule_dataset_req.json
  "{\"scheduler\": \"HEFT\", \"dataset\": \"chains?length=8\", \"index\": 1, \"seed\": 7}")
file(WRITE ${WORK_DIR}/compare_req.json
  "{\"schedulers\": [\"HEFT\", \"CPoP\", \"MCT\"], \"dataset\": \"chains\", \"seed\": 7}")
file(WRITE ${WORK_DIR}/bad_scheduler_req.json
  "{\"scheduler\": \"HEFTT\", \"dataset\": \"chains\"}")
file(WRITE ${WORK_DIR}/malformed_req.json "{\"scheduler\": ")

# 1b. Usage errors exit 2 while parsing flags, before any port is bound or
# thread started. TIMEOUT keeps a regression that did start a daemon from
# hanging the smoke.
function(saga_expect_usage_error name needle)
  execute_process(COMMAND ${SAGA_CLI} ${ARGN}
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT rv EQUAL 2)
    fail("step '${name}' exited ${rv}, expected the usage error 2\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "${needle}" at)
  if(at EQUAL -1)
    fail("step '${name}' lacks '${needle}' in its usage text:\n${err}")
  endif()
endfunction()
saga_expect_usage_error(removed_batch_flag "unknown option '--batch-window'"
  serve --port 0 --batch-window 100)
saga_expect_usage_error(too_many_threads "--threads must be at most"
  serve --port 0 --threads 1000000)

# 2. Start the daemon on an ephemeral port; it runs with 4 workers so the
# concurrent-determinism check below exercises real parallelism.
set(PORT_FILE ${WORK_DIR}/port)
set(LOG_FILE ${WORK_DIR}/daemon.log)
set(PID_FILE ${WORK_DIR}/pid)
execute_process(COMMAND sh -c
  "${SAGA_CLI} serve --port 0 --threads 4 --port-file ${PORT_FILE} >/dev/null 2>${LOG_FILE} & echo $! > ${PID_FILE}"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  fail("failed to launch saga serve")
endif()
file(READ ${PID_FILE} DAEMON_PID)
string(STRIP "${DAEMON_PID}" DAEMON_PID)

# Poll for the port file (the daemon writes it once it is listening).
set(PORT "")
foreach(attempt RANGE 100)
  if(EXISTS ${PORT_FILE})
    file(READ ${PORT_FILE} PORT)
    string(STRIP "${PORT}" PORT)
    if(PORT)
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT PORT)
  file(READ ${LOG_FILE} log)
  fail("daemon never wrote its port file; log:\n${log}")
endif()

# 3. Liveness, scheduling (inline instance and dataset spec), compare.
probe(healthz 0 GET /healthz "" "")
if(NOT healthz_body MATCHES "\"status\": \"ok\"")
  fail("unexpected /healthz body: ${healthz_body}")
endif()

probe(schedule 0 POST /v1/schedule ${WORK_DIR}/schedule_req.json ${WORK_DIR}/resp_1.json)
if(NOT schedule_body MATCHES "\"makespan\"")
  fail("/v1/schedule response has no makespan: ${schedule_body}")
endif()

probe(schedule_ds 0 POST /v1/schedule ${WORK_DIR}/schedule_dataset_req.json "")
if(NOT schedule_ds_body MATCHES "\"makespan\"")
  fail("dataset /v1/schedule response has no makespan: ${schedule_ds_body}")
endif()

probe(compare 0 POST /v1/compare ${WORK_DIR}/compare_req.json "")
if(NOT compare_body MATCHES "\"best\"")
  fail("/v1/compare response has no best row: ${compare_body}")
endif()

# 4. Determinism: the same request, repeated against the 4-thread daemon,
# returns byte-identical bodies.
foreach(i RANGE 2 5)
  probe(repeat_${i} 0 POST /v1/schedule ${WORK_DIR}/schedule_req.json ${WORK_DIR}/resp_${i}.json)
  expect_identical(${WORK_DIR}/resp_1.json ${WORK_DIR}/resp_${i}.json)
endforeach()

# 5. Error contract: 4xx with did-you-mean diagnostics; the daemon stays up.
probe(bad_scheduler 1 POST /v1/schedule ${WORK_DIR}/bad_scheduler_req.json "")
if(NOT bad_scheduler_body MATCHES "did you mean")
  fail("unknown scheduler error lacks a suggestion: ${bad_scheduler_body}")
endif()
probe(malformed 1 POST /v1/schedule ${WORK_DIR}/malformed_req.json "")
if(NOT malformed_body MATCHES "error")
  fail("malformed JSON got no error body: ${malformed_body}")
endif()
probe(lost 1 GET /v1/schedul "" "")
if(NOT lost_body MATCHES "did you mean '/v1/schedule'")
  fail("404 lacks the nearest-path suggestion: ${lost_body}")
endif()
probe(still_up 0 GET /healthz "" "")

# 6. Metrics: request counters and the latency histogram are exposed.
probe(metrics 0 GET /metrics "" "")
foreach(needle
    "saga_requests_total"
    "endpoint=\"schedule\",status=\"2xx\""
    "endpoint=\"schedule\",status=\"4xx\""
    "saga_request_latency_us_bucket"
    "saga_request_latency_p_us{p=\"99\"}"
    "saga_arena_reuse_total{kind=\"hit\"}"
    "saga_uptime_seconds")
  if(NOT metrics_body MATCHES "${needle}")
    fail("/metrics is missing '${needle}':\n${metrics_body}")
  endif()
endforeach()

# 7. Overload: a second daemon with tight admission limits (one worker,
# max-queue 1) is hit with six concurrent slow GA requests. At least one
# must be shed with the deterministic 429 body, none may 5xx, /metrics must
# survive the overload, and plain requests must succeed again afterwards.
file(WRITE ${WORK_DIR}/slow_req.json
  "{\"scheduler\": \"GA\", \"dataset\": \"chains?chains=8&length=25\", \"seed\": 7}")
set(PORT_FILE2 ${WORK_DIR}/port2)
set(LOG_FILE2 ${WORK_DIR}/daemon2.log)
set(PID_FILE2 ${WORK_DIR}/pid2)
execute_process(COMMAND sh -c
  "${SAGA_CLI} serve --port 0 --threads 1 --max-queue 1 --max-inflight 1 --port-file ${PORT_FILE2} >/dev/null 2>${LOG_FILE2} & echo $! > ${PID_FILE2}"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  fail("failed to launch the overload daemon")
endif()
file(READ ${PID_FILE2} DAEMON2_PID)
string(STRIP "${DAEMON2_PID}" DAEMON2_PID)
set(PORT2 "")
foreach(attempt RANGE 100)
  if(EXISTS ${PORT_FILE2})
    file(READ ${PORT_FILE2} PORT2)
    string(STRIP "${PORT2}" PORT2)
    if(PORT2)
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT PORT2)
  file(READ ${LOG_FILE2} log)
  fail("overload daemon never wrote its port file; log:\n${log}")
endif()

# Six concurrent slow requests against one worker: the first occupies the
# worker (~70 ms), the rest pile onto the queue past max-queue. Each probe
# runs in the background and records its exit code once its body is final.
foreach(i RANGE 1 6)
  execute_process(COMMAND sh -c
    "( ${SAGA_PROBE} ${PORT2} POST /v1/schedule ${WORK_DIR}/slow_req.json -o ${WORK_DIR}/over_${i}.body ; echo $? > ${WORK_DIR}/over_${i}.rv ) > /dev/null 2>&1 &"
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    fail("failed to launch overload probe ${i}")
  endif()
endforeach()

# Scrapes are never shed: /metrics answers even while the queue is full
# (it waits its turn behind the backlog, but it is not refused).
set(PORT1 ${PORT})
set(PORT ${PORT2})
probe(overload_metrics 0 GET /metrics "" "")

# Collect every probe's exit code (written after its body file is final).
foreach(i RANGE 1 6)
  set(waited 0)
  while(NOT EXISTS ${WORK_DIR}/over_${i}.rv AND waited LESS 100)
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
    math(EXPR waited "${waited} + 1")
  endwhile()
  if(NOT EXISTS ${WORK_DIR}/over_${i}.rv)
    fail("overload probe ${i} never finished")
  endif()
endforeach()

# Every response is either a scheduled 200 or the canned deterministic 429
# — anything else (especially a 5xx) fails the smoke.
set(shed_count 0)
set(first_shed_body "")
foreach(i RANGE 1 6)
  file(READ ${WORK_DIR}/over_${i}.rv over_rv)
  string(STRIP "${over_rv}" over_rv)
  file(READ ${WORK_DIR}/over_${i}.body over_body)
  if(over_rv EQUAL 0)
    if(NOT over_body MATCHES "\"makespan\"")
      fail("overload probe ${i} succeeded without a makespan: ${over_body}")
    endif()
  else()
    if(NOT over_body MATCHES "too many requests")
      fail("overload probe ${i} failed with a non-429 body: ${over_body}")
    endif()
    math(EXPR shed_count "${shed_count} + 1")
    if(first_shed_body STREQUAL "")
      set(first_shed_body "${over_body}")
    elseif(NOT over_body STREQUAL first_shed_body)
      fail("shed bodies differ (expected deterministic 429):\n${first_shed_body}\nvs\n${over_body}")
    endif()
  endif()
endforeach()
if(shed_count EQUAL 0)
  fail("overload run shed nothing; admission control never engaged")
endif()

# Recovery: once the backlog drains, plain requests are admitted again and
# the shed tally is visible in /metrics.
probe(overload_recovered 0 POST /v1/schedule ${WORK_DIR}/schedule_dataset_req.json "")
probe(overload_metrics_after 0 GET /metrics "" "")
set(PORT ${PORT1})
if(NOT overload_metrics_after_body MATCHES "saga_admission_shed_total [1-9]")
  fail("/metrics does not report the sheds:\n${overload_metrics_after_body}")
endif()

execute_process(COMMAND kill -TERM ${DAEMON2_PID} RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  fail("could not signal the overload daemon (pid ${DAEMON2_PID})")
endif()
foreach(attempt RANGE 100)
  execute_process(COMMAND kill -0 ${DAEMON2_PID}
    RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
  if(NOT rv EQUAL 0)
    unset(DAEMON2_PID)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(DAEMON2_PID)
  fail("overload daemon did not exit within 10s of SIGTERM")
endif()

# 8. Graceful drain: SIGTERM, then the process exits and reports its tally.
execute_process(COMMAND kill -TERM ${DAEMON_PID} RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  fail("could not signal the daemon (pid ${DAEMON_PID})")
endif()
set(gone FALSE)
foreach(attempt RANGE 100)
  execute_process(COMMAND kill -0 ${DAEMON_PID}
    RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
  if(NOT rv EQUAL 0)
    set(gone TRUE)
    unset(DAEMON_PID)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT gone)
  fail("daemon did not exit within 10s of SIGTERM")
endif()
file(READ ${LOG_FILE} log)
if(NOT log MATCHES "saga serve: listening on 127.0.0.1:${PORT}")
  fail("daemon log lacks the listening banner:\n${log}")
endif()
if(NOT log MATCHES "drained; served [0-9]+ request")
  fail("daemon log lacks the drain report:\n${log}")
endif()

message(STATUS "cli_serve_smoke: all steps passed")
