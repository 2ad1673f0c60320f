# Runs `BIN --class=S FLAG` and passes when it exits 2 (a refusal at parse
# time) with an `error:` line on stderr that contains EXPECT.
#   cmake -DBIN=<bench> -DFLAG=<flag> -DEXPECT=<text> -P expect_refusal.cmake
execute_process(COMMAND ${BIN} --class=S ${FLAG}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${FLAG} exited ${rc}, not 2:\n${out}\n${err}")
endif()
string(FIND "${err}" "error: ${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "${BIN} ${FLAG} exited ${rc} without 'error: ${EXPECT}':\n${err}")
endif()
