# Cross-process replay check: runs `bench_exp_service --smoke --trace-out`
# twice, in two separate processes, and fails unless both trace files are
# byte-identical.  The stress replay runs on the DeterministicExecutor, so
# its trace is a pure function of the seed.
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
message(STATUS "trace replay byte-identical across two processes")
