# Runs one paper bench and compares its stdout byte for byte with the
# pinned output. Invoked by ctest (see tests/CMakeLists.txt) as
#   cmake -DBENCH=<binary> -DGOLDEN=<pinned.txt> -DACTUAL=<out.txt>
#         -P compare_golden.cmake
# With MTPU_UPDATE_GOLDEN=1 in the environment the pinned file is
# rewritten instead; re-pin only on purpose and say why.

execute_process(COMMAND ${BENCH}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

if(DEFINED ENV{MTPU_UPDATE_GOLDEN} AND "$ENV{MTPU_UPDATE_GOLDEN}")
    file(WRITE ${GOLDEN} "${actual}")
    message(STATUS "re-pinned ${GOLDEN}")
    return()
endif()

if(NOT EXISTS ${GOLDEN})
    message(FATAL_ERROR "no pinned output at ${GOLDEN}; "
                        "run once with MTPU_UPDATE_GOLDEN=1")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
    message(FATAL_ERROR "${BENCH}: output differs from ${GOLDEN} "
                        "(actual output kept at ${ACTUAL})")
endif()
