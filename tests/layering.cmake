# Fails when LIBRARY's transitive link closure reaches a FORBIDDEN library.
#
#   cmake -DLIBRARY=<name> -DCLOSURE=<a,b,...> -DFORBIDDEN=<x,y,...>
#         -P layering.cmake
#
# tests/CMakeLists.txt computes CLOSURE from the targets at configure time,
# so a re-added link edge fails this check after the next configure.
cmake_minimum_required(VERSION 3.16)

string(REPLACE "," ";" closure "${CLOSURE}")
string(REPLACE "," ";" forbidden "${FORBIDDEN}")
list(LENGTH closure size)
message(STATUS "${LIBRARY} links ${size} libraries: ${CLOSURE}")
set(hits "")
foreach(lib IN LISTS forbidden)
  if(lib IN_LIST closure)
    list(APPEND hits ${lib})
  endif()
endforeach()
if(hits)
  message(FATAL_ERROR "${LIBRARY} must not link ${hits}")
endif()
