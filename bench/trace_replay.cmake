# Cross-process replay check: runs `bench_exp_service --smoke --trace-out`
# twice, in two separate processes, and fails unless both trace files are
# byte-identical.  The stress replay runs on the DeterministicExecutor, so
# its trace is a pure function of the seed — and of every scheduling,
# stats and span decision the service makes.  The trace's SHA-256 is
# therefore pinned to a committed value: a change that moves it changes
# service behaviour, and must update kGoldenSha256 below on purpose.
#
#   cmake -DBENCH=<path to bench_exp_service> -P trace_replay.cmake
if(NOT BENCH)
  message(FATAL_ERROR "trace_replay.cmake: pass -DBENCH=<bench_exp_service>")
endif()
foreach(run a b)
  file(REMOVE trace_${run}.json)
  execute_process(COMMAND ${BENCH} --smoke --trace-out trace_${run}.json
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_exp_service run ${run} exited with ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        trace_a.json trace_b.json
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "two bench_exp_service replays of one seed wrote "
                      "different traces (trace_a.json vs trace_b.json)")
endif()
set(kGoldenSha256
    e82614c061305314969bacc4b604b7c858058e6ba1b85b2bc8d8c1b9184774a6)
file(SHA256 trace_a.json digest)
if(NOT digest STREQUAL kGoldenSha256)
  message(FATAL_ERROR "bench_exp_service --smoke trace sha256 ${digest} "
                      "differs from the committed ${kGoldenSha256}: the "
                      "service's schedule, stats or spans changed")
endif()
message(STATUS "trace replay byte-identical across two processes, "
               "sha256 ${digest}")
