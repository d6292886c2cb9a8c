# Runs one command-line case and checks its exit status and output.
#
#   cmake -DSIM=<binary> -DARGS=<args separated by |> -DEXPECT=<status>
#         [-DMATCH=<regex over stdout+stderr>] -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${SIM}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
list(JOIN args " " shown)
if(NOT "${status}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "arinoc_sim ${shown}: exit ${status}, want ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "arinoc_sim ${shown}: output does not match "
                      "'${MATCH}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
