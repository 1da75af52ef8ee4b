// Shared test helpers.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

#include "util/parallel.hpp"

namespace tsteiner::testutil {

/// Restores the pool default width when a test that overrides it exits.
struct PoolWidthGuard {
  ~PoolWidthGuard() { set_parallel_threads(0); }
};

/// Unique scratch directory for the currently running test case:
/// <TempDir>/ts_<suite>_<test>_<pid>, created on first call. ctest runs every
/// discovered gtest case as its own process (and `ctest -j` runs them
/// concurrently), so file-writing tests must never share fixed file names —
/// deriving the directory from the test identity plus the pid makes
/// collisions impossible, including across repeated runs of the same test.
inline std::string test_tmp_dir() {
  std::string name = "ts_";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string(info->test_suite_name()) + "_" + info->name();
  }
  name += "_" + std::to_string(static_cast<long long>(::getpid()));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace tsteiner::testutil
