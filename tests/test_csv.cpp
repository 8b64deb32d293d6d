#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace hp::util {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// A file name unique to the running test and process: ctest runs each case
/// as its own process, in parallel, so a fixed name would be shared.
std::string own_temp_path() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "hp_csv_" + info->test_suite_name() + "_" +
         info->name() + "_" + std::to_string(::getpid()) + ".csv";
}

class CsvWriterTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = own_temp_path();
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.write_row({"1", "2"});
    csv.write_row({"x", "y"});
  }
  EXPECT_EQ(slurp(path_), "a,b\n1,2\nx,y\n");
}

TEST_F(CsvWriterTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"v"});
    csv.write_row({"plain"});
    csv.write_row({"has,comma"});
    csv.write_row({"has\"quote"});
  }
  EXPECT_EQ(slurp(path_), "v\nplain\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("abc"), "abc");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterBadPath, ReportsNotOk) {
  CsvWriter csv("/nonexistent-dir-xyz/file.csv", {"a"});
  EXPECT_FALSE(csv.ok());
}

}  // namespace
}  // namespace hp::util
