# Lists the tests of every test binary twice and fails when the two
# listings differ or when a name prints a parameter as raw bytes
# ("N-byte object <...>": a pointer and padding, which change from run to
# run). gtest_discover_tests builds the ctest names from this listing, so
# either fault makes test identities change between builds.
#
#   cmake -DTEST_BINARIES="path/a|path/b" -P check_test_names.cmake
string(REPLACE "|" ";" binaries "${TEST_BINARIES}")
foreach(binary IN LISTS binaries)
  foreach(listing first second)
    execute_process(COMMAND "${binary}" --gtest_list_tests
        OUTPUT_VARIABLE ${listing} RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "${binary} --gtest_list_tests exited ${status}")
    endif()
  endforeach()
  if(NOT first STREQUAL second)
    message(FATAL_ERROR "${binary}: two --gtest_list_tests runs differ")
  endif()
  string(FIND "${first}" "byte object" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR
        "${binary}: a test name prints a parameter's raw bytes")
  endif()
endforeach()
