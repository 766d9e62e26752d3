#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace katric::test {

/// A scratch directory private to the running test case: named after the
/// suite, the test and the process id, so cases run as parallel processes
/// (ctest -j) never share — or remove — each other's files.
inline std::filesystem::path unique_temp_dir(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return std::filesystem::temp_directory_path()
           / (tag + '_' + info->test_suite_name() + '_' + info->name() + '_'
              + std::to_string(::getpid()));
}

}  // namespace katric::test
