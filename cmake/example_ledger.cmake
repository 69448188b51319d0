# Runs one example and checks its stdout against the committed ledger file,
# byte for byte; with -DBLESS=ON, rewrites the ledger file instead.
#
#   cmake -DEXE=<binary> -DEXPECTED=<examples/expected/x.txt>
#         -DACTUAL=<build-tree copy> [-DBLESS=ON] -P example_ledger.cmake
#
# On a mismatch the script prints `diff -u expected actual` (or both files
# when no diff tool is found) and fails.
foreach(var EXE EXPECTED ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "example_ledger.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND "${EXE}"
  OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE exit_code
)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${exit_code}")
endif()

if(BLESS)
  configure_file("${ACTUAL}" "${EXPECTED}" COPYONLY)
  message(STATUS "blessed ${EXPECTED}")
  return()
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}" "${ACTUAL}"
  RESULT_VARIABLE differs
)
if(differs)
  find_program(DIFF_TOOL diff)
  if(DIFF_TOOL)
    execute_process(COMMAND "${DIFF_TOOL}" -u "${EXPECTED}" "${ACTUAL}")
  else()
    file(READ "${EXPECTED}" expected_text)
    file(READ "${ACTUAL}" actual_text)
    message("--- expected\n${expected_text}--- actual\n${actual_text}")
  endif()
  message(FATAL_ERROR "stdout of ${EXE} differs from ${EXPECTED}; if the change is "
                      "intended, run `cmake --build <build-dir> --target bless-examples` "
                      "and note the moved lines in CHANGES.md")
endif()
