# Runs one tool invocation and passes only when it exits with EXPECT_EXIT
# and its combined stdout/stderr matches EXPECT_MESSAGE (a regex).
#
#   cmake -DTOOL=<exe> -DARGS="a|b|c" -DEXPECT_EXIT=2
#         -DEXPECT_MESSAGE=<regex> -P expect_usage_error.cmake
#
# ARGS separates arguments with '|' so the list survives add_test quoting.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${rc}'\n"
          "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_MESSAGE}")
  message(FATAL_ERROR "output does not match '${EXPECT_MESSAGE}'\n"
          "stdout: ${out}\nstderr: ${err}")
endif()
