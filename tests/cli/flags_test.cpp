// Tests for the declarative flag layer (cli/flags.hpp): typed adders
// accept/reject, parse_flag outcome classification, the generated help
// goldens, and the shared cell, --jobs and --store rows both the CLI and
// the benches register.
#include "cli/flags.hpp"

#include <gtest/gtest.h>

#include "harness/runner.hpp"

namespace paxsim::cli {
namespace {

TEST(FlagSetTest, TypedAddersAcceptAndReject) {
  int n = 1;
  std::size_t sz = 2;
  std::uint64_t u = 3;
  double d = 4.0;
  bool b = false;
  std::string s = "x";
  FlagSet fs;
  fs.add_int("n", &n, 1, "N", "an int");
  fs.add_int("sz", &sz, 1, "N", "a size");
  fs.add_int("u", &u, 0, "N", "a u64");
  fs.add_double("d", &d, 0.5, "F", "a double");
  fs.add_flag("b", &b, "a bare flag");
  fs.add_string("s", &s, "STR", "a string");

  std::string error;
  EXPECT_EQ(fs.parse_flag("--n=7", &error), FlagSet::Outcome::kOk);
  EXPECT_EQ(n, 7);
  EXPECT_EQ(fs.parse_flag("--sz=9", &error), FlagSet::Outcome::kOk);
  EXPECT_EQ(sz, 9u);
  EXPECT_EQ(fs.parse_flag("--u=18446744073709551615", &error),
            FlagSet::Outcome::kOk);
  EXPECT_EQ(u, 18446744073709551615ull);
  EXPECT_EQ(fs.parse_flag("--d=2.5", &error), FlagSet::Outcome::kOk);
  EXPECT_EQ(d, 2.5);
  EXPECT_EQ(fs.parse_flag("--b", &error), FlagSet::Outcome::kOk);
  EXPECT_TRUE(b);
  EXPECT_EQ(fs.parse_flag("--s=hello", &error), FlagSet::Outcome::kOk);
  EXPECT_EQ(s, "hello");

  // Below-minimum, non-numeric and empty values are typed errors.
  EXPECT_EQ(fs.parse_flag("--n=0", &error), FlagSet::Outcome::kError);
  EXPECT_NE(error.find("--n"), std::string::npos);
  EXPECT_EQ(fs.parse_flag("--n=xyz", &error), FlagSet::Outcome::kError);
  EXPECT_EQ(fs.parse_flag("--d=0.25", &error), FlagSet::Outcome::kError);
  EXPECT_EQ(fs.parse_flag("--u=nope", &error), FlagSet::Outcome::kError);
  EXPECT_EQ(fs.parse_flag("--s=", &error), FlagSet::Outcome::kError);
  EXPECT_EQ(fs.parse_flag("--b=1", &error), FlagSet::Outcome::kError);
  EXPECT_NE(error.find("takes no value"), std::string::npos);
  // State survives rejected writes.
  EXPECT_EQ(n, 7);
  EXPECT_EQ(d, 2.5);
}

TEST(FlagSetTest, IntegerFlagsTakeOnlyDecimalsTheTypeHolds) {
  // strtoull reads "-1" as 2^64-1 and clamps an overflow to the largest
  // value; a cast then wraps an int.  Each of those is refused instead.
  int trials = 1;
  std::size_t chunk = 0;
  std::uint64_t seed = 0;
  FlagSet fs;
  fs.add_int("trials", &trials, 1, "N", "an int");
  fs.add_int("chunk", &chunk, 0, "N", "a size");
  fs.add_int("seed", &seed, 0, "N", "a u64");
  std::string error;
  for (const char* bad :
       {"--trials=4294967297", "--trials=2147483648", "--trials=-1",
        "--trials=+5", "--trials= 5", "--chunk=-1", "--chunk=+0",
        "--chunk=18446744073709551616", "--seed=-1", "--seed=+5",
        "--seed=18446744073709551616", "--seed=0x10", "--seed=5 "}) {
    EXPECT_EQ(fs.parse_flag(bad, &error), FlagSet::Outcome::kError) << bad;
    EXPECT_EQ(error.rfind("bad --", 0), 0u) << error;
  }
  EXPECT_EQ(trials, 1);
  EXPECT_EQ(chunk, 0u);
  EXPECT_EQ(seed, 0u);
  // The edges of each range are accepted.
  EXPECT_EQ(fs.parse_flag("--trials=2147483647", &error),
            FlagSet::Outcome::kOk);
  EXPECT_EQ(trials, 2147483647);
  EXPECT_EQ(fs.parse_flag("--chunk=18446744073709551615", &error),
            FlagSet::Outcome::kOk);
  EXPECT_EQ(chunk, 18446744073709551615ull);
  EXPECT_EQ(fs.parse_flag("--seed=007", &error), FlagSet::Outcome::kOk);
  EXPECT_EQ(seed, 7u);
}

TEST(FlagSetTest, OutcomeClassification) {
  bool b = false;
  FlagSet fs;
  fs.add_flag("known", &b, "known flag");
  std::string error;
  EXPECT_EQ(fs.parse_flag("positional", &error), FlagSet::Outcome::kUnknown);
  EXPECT_NE(error.find("unexpected argument"), std::string::npos);
  EXPECT_EQ(fs.parse_flag("--nope", &error), FlagSet::Outcome::kUnknown);
  EXPECT_NE(error.find("unknown flag '--nope'"), std::string::npos);
  // A valued flag given bare tells the user the expected shape.
  int n = 1;
  fs.add_int("count", &n, 1, "N", "needs a value");
  EXPECT_EQ(fs.parse_flag("--count", &error), FlagSet::Outcome::kError);
  EXPECT_NE(error.find("--count=N"), std::string::npos);
}

TEST(FlagSetTest, ParseRunsAWholeTokenList) {
  int n = 1;
  bool b = false;
  FlagSet fs;
  fs.add_int("n", &n, 1, "N", "an int");
  fs.add_flag("b", &b, "bare");
  std::string error;
  EXPECT_TRUE(fs.parse({"--n=5", "--b"}, &error));
  EXPECT_EQ(n, 5);
  EXPECT_TRUE(b);
  EXPECT_FALSE(fs.parse({"--n=5", "--zzz"}, &error));
}

TEST(FlagSetTest, HelpTextIsGeneratedFromTheTable) {
  int n = 3;
  bool b = false;
  FlagSet fs;
  fs.add_int("widgets", &n, 1, "N", "number of widgets");
  fs.add_flag("quiet", &b, "suppress output");
  const std::string help = fs.help_text(2);
  // Golden shape: aligned heads, help text, rendered default.
  EXPECT_NE(help.find("--widgets=N"), std::string::npos);
  EXPECT_NE(help.find("number of widgets (default 3)"), std::string::npos);
  EXPECT_NE(help.find("--quiet"), std::string::npos);
  EXPECT_NE(help.find("suppress output"), std::string::npos);
  // Bare flags render no "=HINT" and no default.
  EXPECT_EQ(help.find("--quiet="), std::string::npos);
}

TEST(FlagSetTest, HelpTextSkipsTheRowsAnotherTableHas) {
  int n = 3;
  bool b = false;
  FlagSet fs, shared;
  fs.add_int("widgets", &n, 1, "N", "number of widgets");
  fs.add_flag("quiet", &b, "suppress output");
  shared.add_flag("quiet", &b, "suppress output");
  const std::string help = fs.help_text(2, &shared);
  EXPECT_NE(help.find("--widgets=N"), std::string::npos);
  EXPECT_EQ(help.find("--quiet"), std::string::npos);
  EXPECT_EQ(fs.help_text(2, &fs), "");
}

TEST(RunFlagTableTest, RegistersTheSharedSpellings) {
  harness::RunOptions run;
  FlagSet fs;
  register_cell_flags(fs, &run);
  for (const char* name : {"class", "seed", "grain", "sched", "chunk",
                           "scale", "machine", "no-verify"}) {
    EXPECT_TRUE(fs.has(name)) << name;
  }
  // Only the benches that average over trials register --trials; only the
  // paxsim CLI reports findings or traces, so only it registers --check
  // and --trace.  No cell table carries any of them.
  for (const char* name : {"trials", "check", "trace"}) {
    EXPECT_FALSE(fs.has(name)) << name;
  }
}

TEST(RunFlagTableTest, WritesThroughToRunOptions) {
  harness::RunOptions run;
  std::string machine_spec;
  FlagSet fs;
  register_cell_flags(fs, &run, &machine_spec);
  std::string error;
  EXPECT_TRUE(fs.parse({"--class=S", "--seed=42", "--sched=dynamic",
                        "--chunk=8", "--grain=2", "--scale=4",
                        "--machine=woodcrest", "--no-verify"},
                       &error))
      << error;
  EXPECT_EQ(run.cls, npb::ProblemClass::kClassS);
  EXPECT_EQ(run.base_seed, 42u);
  EXPECT_EQ(run.sched_kind, static_cast<int>(xomp::ScheduleKind::kDynamic));
  EXPECT_EQ(run.sched_chunk, 8u);
  EXPECT_EQ(run.grain, 2u);
  EXPECT_EQ(run.machine_scale, 4.0);
  EXPECT_FALSE(run.verify);
  ASSERT_NE(run.topology, nullptr);
  EXPECT_EQ(machine_spec, "woodcrest");
}

TEST(RunFlagTableTest, RejectsBadValuesWithTheSharedMessages) {
  harness::RunOptions run;
  FlagSet fs;
  register_cell_flags(fs, &run);
  std::string error;
  EXPECT_EQ(fs.parse_flag("--class=Q", &error), FlagSet::Outcome::kError);
  EXPECT_NE(error.find("use S, W, A or B"), std::string::npos);
  EXPECT_EQ(fs.parse_flag("--sched=fastest", &error),
            FlagSet::Outcome::kError);
  EXPECT_NE(error.find("use default, static, dynamic or guided"),
            std::string::npos);
  EXPECT_EQ(fs.parse_flag("--machine=atlantis", &error),
            FlagSet::Outcome::kError);
  EXPECT_NE(error.find("bad --machine"), std::string::npos);
  EXPECT_EQ(fs.parse_flag("--trials=2", &error), FlagSet::Outcome::kUnknown);
  EXPECT_EQ(error, "unknown flag '--trials'");
  for (const char* bad : {"--scale=0.5", "--scale=nan", "--scale=inf"}) {
    EXPECT_EQ(fs.parse_flag(bad, &error), FlagSet::Outcome::kError) << bad;
    EXPECT_NE(error.find("bad --scale"), std::string::npos) << bad;
  }
}

TEST(EngineFlagTableTest, JobsAndStore) {
  int jobs = 1;
  std::string store;
  FlagSet fs;
  register_jobs_flag(fs, &jobs);
  register_store_flag(fs, &store);
  std::string error;
  EXPECT_TRUE(fs.parse({"--jobs=4", "--store=/tmp/paxstore"}, &error));
  EXPECT_EQ(jobs, 4);
  EXPECT_EQ(store, "/tmp/paxstore");
  // "off" normalizes to detached (empty).
  EXPECT_EQ(fs.parse_flag("--store=off", &error), FlagSet::Outcome::kOk);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(fs.parse_flag("--jobs=0", &error), FlagSet::Outcome::kError);
}

}  // namespace
}  // namespace paxsim::cli
