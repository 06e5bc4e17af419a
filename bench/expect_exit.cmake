# Runs BIN with the single argument FLAG and fails unless it exits with
# status EXPECT. Usage:
#   cmake -DBIN=<exe> -DFLAG=<arg> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${BIN} ${FLAG}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${BIN} ${FLAG}: exit status ${rc}, expected ${EXPECT}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
message(STATUS "${BIN} ${FLAG}: exit ${rc}: ${err}")
