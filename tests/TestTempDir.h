//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scratch file paths for tests. Every test process gets its own
/// directory under testing::TempDir(), named after its pid, created empty
/// on first use and removed with its contents when the process exits.
/// ctest runs each test in its own process, so tests running in parallel
/// never share a file, and a file left by an earlier run is never seen.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_TESTS_TESTTEMPDIR_H
#define ATMEM_TESTS_TESTTEMPDIR_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include <unistd.h>

namespace atmem {
namespace testutil {

/// This process's scratch directory, with a trailing '/'.
inline const std::string &processTempDir() {
  // Never destroyed: the exit handler below runs after static destructors
  // of objects constructed later.
  static const std::string *Dir = [] {
    static const pid_t Owner = ::getpid();
    auto *Path = new std::string(::testing::TempDir() + "atmem-test-" +
                                 std::to_string(Owner) + "/");
    std::error_code Ignored;
    std::filesystem::remove_all(*Path, Ignored);
    std::filesystem::create_directories(*Path, Ignored);
    // A forked child that exits normally (a death test) must not remove
    // its parent's files.
    std::atexit([] {
      if (::getpid() == Owner) {
        std::error_code Ignored;
        std::filesystem::remove_all(processTempDir(), Ignored);
      }
    });
    return Path;
  }();
  return *Dir;
}

/// Path of the scratch file \p Name in this process's directory.
inline std::string tempPath(std::string_view Name) {
  return processTempDir() + std::string(Name);
}

} // namespace testutil
} // namespace atmem

#endif // ATMEM_TESTS_TESTTEMPDIR_H
