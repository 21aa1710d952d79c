# A malformed numeric argument is a usage error: pingmeshctl exits 2 and
# names the value on stderr, instead of dying on an uncaught exception.
#
#   cmake -DPINGMESHCTL=build/tools/pingmeshctl -P tools/pingmeshctl_usage_test.cmake

function(expect_usage_error message)
  execute_process(COMMAND ${PINGMESHCTL} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(JOIN " " cmd ${ARGN})
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "pingmeshctl ${cmd}: exit '${rc}', want 2\n${err}")
  endif()
  string(FIND "${err}" "pingmeshctl: ${message}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "pingmeshctl ${cmd}: stderr lacks 'pingmeshctl: ${message}'\n${err}")
  endif()
endfunction()

expect_usage_error("invalid value for --hours: abc" simulate --hours abc)
# 3,000,000 hours is more nanoseconds than SimTime holds.
expect_usage_error("invalid value for --hours: 3000000" simulate --hours 3000000)
expect_usage_error("invalid value for <dst-index>: y" traceroute 0 y)
expect_usage_error("invalid value for <src-index>: -5" traceroute -5 0)
expect_usage_error("invalid value for <server-index>: 4294967296" pinglist 4294967296)
expect_usage_error("invalid value for --port: 70000" traceroute 0 1 --port 70000)
expect_usage_error("invalid value for --seed: 7x" drops --seed 7x)
# The serving query rejects a malformed window or count before it simulates.
expect_usage_error("invalid value for --minutes: abc" query heatmap --minutes abc)
expect_usage_error("invalid value for --k: 0" query topk --k 0)
