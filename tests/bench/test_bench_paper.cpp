// Drives the built bench_paper binary: malformed flags, unknown sections
// and a --csv it cannot honour are usage errors (exit 1) that name the
// flag or section; a CSV it cannot write is a runtime failure (exit 2).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

namespace fs = std::filesystem;

struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

/// Runs bench_paper in a fresh scratch directory per test.
class BenchPaperCli : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = fs::temp_directory_path() /
           ("bench_paper_cli_" + test + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  Outcome run(const std::string& args) const {
    const std::string command = "cd '" + dir_.string() + "' && '" +
                                BENCH_PAPER_BINARY + "' " + args +
                                " > out.txt 2> err.txt";
    const int status = std::system(command.c_str());
    Outcome result;
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.out = slurp(dir_ / "out.txt");
    result.err = slurp(dir_ / "err.txt");
    return result;
  }

  fs::path dir_;
};

TEST_F(BenchPaperCli, UsageErrorsNameTheFlagAndExitOne) {
  const struct {
    const char* args;
    const char* named;  // must appear in the error message
  } cases[] = {
      {"--quik", "--quik"},
      {"--seed abc", "--seed"},
      {"--seed 12abc", "--seed"},
      {"--seed -1", "--seed"},
      {"--seed 18446744073709551616", "--seed"},
      {"--csv", "--csv"},
      {"fig2 --csv", "--csv"},
      {"--csv --quick fig2", "--csv"},
      {"fig9", "fig9"},
      {"--csv two.csv fig2 table2", "--csv"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    const Outcome r = run(c.args);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("error: "), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(c.named), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "");
  }
  EXPECT_FALSE(fs::exists(dir_ / "two.csv"));
}

TEST_F(BenchPaperCli, UnwritableCsvExitsTwo) {
  const Outcome r = run("fig2 --csv /nonexistent/dir/x.csv");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("/nonexistent/dir/x.csv"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("wrote"), std::string::npos) << r.out;
}

TEST_F(BenchPaperCli, CsvOfOneSectionIsWritten) {
  const Outcome r = run("fig2 --csv fig2.csv");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote 6 rows to fig2.csv"), std::string::npos);
  const std::string csv = slurp(dir_ / "fig2.csv");
  EXPECT_EQ(csv.rfind("strategy,p,phases,", 0), 0u) << csv;
}

}  // namespace
