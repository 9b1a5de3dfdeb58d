# Runs hcmdgrid with ARGS (one space-separated string) and fails unless it
# exits with status 2, the usage-error status. A crash or an internal
# assert exits otherwise, which a WILL_FAIL test could not tell apart.
#
#   cmake -DHCMDGRID=<path> "-DARGS=dock abc" -P cli_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${HCMDGRID}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR
          "hcmdgrid ${ARGS}: exit status ${status}, expected 2\n${out}${err}")
endif()
