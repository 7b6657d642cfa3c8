// Drives the built mars_map binary: usage errors name the offending flag
// and exit 1, the cheap subcommands succeed, and the generated help lists
// exactly the flags docs/CLI.md documents.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
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

/// Every `--flag` token in `text`.
std::set<std::string> flags_in(const std::string& text) {
  static const std::regex kFlag("--[a-z][a-z0-9-]*");
  std::set<std::string> flags;
  for (std::sregex_iterator it(text.begin(), text.end(), kFlag), end;
       it != end; ++it) {
    flags.insert(it->str());
  }
  return flags;
}

/// Runs mars_map in a fresh scratch directory per test.
class MarsMapCli : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = fs::temp_directory_path() /
           ("mars_map_cli_" + test + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  Outcome run(const std::string& args) const {
    const std::string command = "cd '" + dir_.string() + "' && '" +
                                MARS_MAP_BINARY + "' " + args +
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

struct UsageCase {
  const char* args;
  const char* flag;     // must appear in the error message
  const char* command;  // must appear too, when not null
};

TEST_F(MarsMapCli, UsageErrorsNameTheFlagAndExitOne) {
  const UsageCase cases[] = {
      // A value flag without its value.
      {"map --json", "--json", "map"},
      {"map --search-budget", "--search-budget", "map"},
      {"serve --rate", "--rate", "serve"},
      // A flag the subcommand does not take, and a positional argument.
      {"map --thread 4", "--thread", "map"},
      {"map alexnet", "alexnet", "map"},
      {"explore --fixed --topology ring:4:8", "--fixed", "explore"},
      {"baseline --mapper bogus", "--mapper", "baseline"},
      {"baseline --quick", "--quick", "baseline"},
      {"profile --topology f1", "--topology", "profile"},
      {"profile --seed 1", "--seed", "profile"},
      {"models --model alexnet", "--model", "models"},
      // Malformed values.
      {"map --seed 1.5", "--seed", nullptr},
      {"map --seed -1", "--seed", nullptr},
      {"map --seed abc", "--seed", nullptr},
      {"map --seed 18446744073709551616", "--seed", nullptr},
      {"map --topology cloud:abc:4", "--topology", nullptr},
      {"map --topology ring:4:abc", "--topology", nullptr},
      {"map --threads 1e10", "--threads", nullptr},
      {"map --threads 0", "--threads", nullptr},
      {"throughput --batch 2.5", "--batch", nullptr},
      {"serve --duration nan", "--duration", nullptr},
      {"serve --slo -1", "--slo", nullptr},
      {"comap --model alexnet --slo 0", "--slo", nullptr},
      {"map --mapper bogus", "bogus", nullptr},
  };
  for (const UsageCase& c : cases) {
    SCOPED_TRACE(c.args);
    const Outcome r = run(c.args);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("error: "), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;
    if (c.command != nullptr) {
      EXPECT_NE(r.err.find(c.command), std::string::npos) << r.err;
    }
    EXPECT_EQ(r.out, "");
  }
}

TEST_F(MarsMapCli, BareJsonWritesNoFile) {
  for (const char* command : {"map", "serve", "comap", "explore"}) {
    SCOPED_TRACE(command);
    const Outcome r = run(std::string(command) + " --json");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("--json needs a value"), std::string::npos) << r.err;
  }
  EXPECT_FALSE(fs::exists(dir_ / "1"));
}

TEST_F(MarsMapCli, UnknownOrMissingCommandExitsOne) {
  const Outcome unknown = run("bogus");
  EXPECT_EQ(unknown.exit_code, 1);
  EXPECT_NE(unknown.err.find("unknown command 'bogus'"), std::string::npos);
  EXPECT_EQ(run("").exit_code, 1);
}

TEST_F(MarsMapCli, CheapSubcommandsSucceed) {
  for (const char* args : {"models", "profile", "baseline", "help", "--help"}) {
    SCOPED_TRACE(args);
    const Outcome r = run(args);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_FALSE(r.out.empty());
  }
}

TEST_F(MarsMapCli, ServeAcceptsAFullWidthSeed) {
  const Outcome r =
      run("serve --mapper baseline --duration 0.1 --seed 3000000000");
  EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST_F(MarsMapCli, ProfileHonoursModelFileAndFixed) {
  std::ofstream(dir_ / "tiny.txt") << "model tiny\n"
                                      "input in 3 32 32\n"
                                      "conv tinyconv_a in 16 k3 p1\n"
                                      "conv tinyconv_b tinyconv_a 32 k3 p1\n";
  const Outcome file = run("profile --model-file tiny.txt");
  EXPECT_EQ(file.exit_code, 0) << file.err;
  EXPECT_NE(file.out.find("tinyconv_a"), std::string::npos) << file.out;
  EXPECT_NE(file.out.find("tinyconv_b"), std::string::npos) << file.out;

  const Outcome adaptive = run("profile --model alexnet");
  const Outcome fixed = run("profile --model alexnet --fixed");
  EXPECT_EQ(fixed.exit_code, 0) << fixed.err;
  EXPECT_NE(fixed.out, adaptive.out);
}

TEST_F(MarsMapCli, HelpAndCliDocListTheSameFlags) {
  const Outcome help = run("help");
  ASSERT_EQ(help.exit_code, 0);
  const std::string doc = slurp(fs::path(MARS_SOURCE_DIR) / "docs" / "CLI.md");
  const std::size_t related = doc.find("## Related binaries");
  ASSERT_NE(related, std::string::npos);
  const std::set<std::string> in_help = flags_in(help.out);
  const std::set<std::string> in_doc = flags_in(doc.substr(0, related));
  EXPECT_GT(in_help.size(), 30u);
  for (const std::string& flag : in_help) {
    EXPECT_EQ(in_doc.count(flag), 1u) << flag << " is missing from CLI.md";
  }
  for (const std::string& flag : in_doc) {
    EXPECT_EQ(in_help.count(flag), 1u) << flag << " is not in the help";
  }
}

}  // namespace
