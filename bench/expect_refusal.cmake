# Runs `BIN --class=S FLAG` and passes when it exits non-zero with an
# `error:` line on stderr that contains EXPECT.
#   cmake -DBIN=<bench> -DFLAG=<flag> -DEXPECT=<text> -P expect_refusal.cmake
execute_process(COMMAND ${BIN} --class=S ${FLAG}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${FLAG} exited 0:\n${out}")
endif()
string(FIND "${err}" "error: ${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "${BIN} ${FLAG} exited ${rc} without 'error: ${EXPECT}':\n${err}")
endif()
