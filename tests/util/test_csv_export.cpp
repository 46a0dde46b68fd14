#include "util/csv_export.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "util/contracts.hpp"

namespace poc::util {
namespace {

class CsvExportTest : public ::testing::Test {
protected:
    void SetUp() override {
        // One directory per test and process: ctest runs these tests as
        // parallel processes, and a shared directory let one test's
        // TearDown delete another's output mid-test.
        dir_ = std::filesystem::temp_directory_path() /
               ("poc_csv_test_" +
                std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
                "_" + std::to_string(getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override {
        unsetenv("POC_CSV_DIR");
        std::filesystem::remove_all(dir_);
    }

    Table sample() const {
        Table t({"a", "b"});
        t.add_row({"1", "x,y"});
        return t;
    }

    std::filesystem::path dir_;
};

TEST_F(CsvExportTest, DisabledWithoutEnvVar) {
    unsetenv("POC_CSV_DIR");
    EXPECT_FALSE(csv_export_dir().has_value());
    EXPECT_FALSE(maybe_export_csv(sample(), "t").has_value());
}

TEST_F(CsvExportTest, EmptyEnvVarDisables) {
    setenv("POC_CSV_DIR", "", 1);
    EXPECT_FALSE(csv_export_dir().has_value());
}

TEST_F(CsvExportTest, WritesFileWhenEnabled) {
    setenv("POC_CSV_DIR", dir_.c_str(), 1);
    const auto path = maybe_export_csv(sample(), "mytable");
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(*path, (dir_ / "mytable.csv").string());
    std::ifstream in(*path);
    std::string header;
    std::string row;
    std::getline(in, header);
    std::getline(in, row);
    EXPECT_EQ(header, "a,b");
    EXPECT_EQ(row, "1,\"x,y\"");
}

TEST_F(CsvExportTest, UnwritableDirectoryFailsLoudly) {
    setenv("POC_CSV_DIR", (dir_ / "does_not_exist").c_str(), 1);
    EXPECT_THROW(maybe_export_csv(sample(), "t"), ContractViolation);
}

TEST_F(CsvExportTest, RejectsPathTraversalNames) {
    setenv("POC_CSV_DIR", dir_.c_str(), 1);
    EXPECT_THROW(maybe_export_csv(sample(), "nested/name"), ContractViolation);
    EXPECT_THROW(maybe_export_csv(sample(), ""), ContractViolation);
}

TEST_F(CsvExportTest, OverwritesExistingFile) {
    setenv("POC_CSV_DIR", dir_.c_str(), 1);
    maybe_export_csv(sample(), "t");
    Table other({"only"});
    other.add_row({"42"});
    maybe_export_csv(other, "t");
    std::ifstream in(dir_ / "t.csv");
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "only");
}

}  // namespace
}  // namespace poc::util
