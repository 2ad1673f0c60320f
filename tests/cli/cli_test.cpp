// Tests for the paxsim CLI: parsing (pure), validation diagnostics and
// end-to-end execution of every subcommand against string streams.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

namespace paxsim::cli {
namespace {

ParseResult P(std::initializer_list<const char*> args) {
  return parse(std::vector<std::string>(args.begin(), args.end()));
}

TEST(CliParseTest, EmptyIsError) {
  const auto r = P({});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("subcommand"), std::string::npos);
}

TEST(CliParseTest, HelpVariants) {
  for (const char* h : {"help", "--help", "-h"}) {
    const auto r = P({h});
    ASSERT_TRUE(r.ok()) << h;
    EXPECT_EQ(r.command->kind, Command::Kind::kHelp);
  }
}

TEST(CliParseTest, ListAndLmbench) {
  EXPECT_EQ(P({"list"}).command->kind, Command::Kind::kList);
  // Section 3 has one driver, bench/sec3_lmbench; paxsim has no subcommand.
  EXPECT_NE(P({"lmbench"}).error.find("unknown subcommand 'lmbench'"),
            std::string::npos);
}

TEST(CliParseTest, RunParsesEverything) {
  const auto r = P({"run", "--bench=cg", "--config=HT on -4-1", "--class=W",
                    "--seed=99", "--jobs=4", "--csv", "--baseline",
                    "--no-verify"});
  ASSERT_TRUE(r.ok()) << r.error;
  const Command& c = *r.command;
  EXPECT_EQ(c.kind, Command::Kind::kRun);
  ASSERT_EQ(c.benches.size(), 1u);
  EXPECT_EQ(c.benches[0], npb::Benchmark::kCG);
  EXPECT_EQ(c.config_name, "HT on -4-1");
  EXPECT_EQ(c.options.cls, npb::ProblemClass::kClassW);
  EXPECT_EQ(c.options.base_seed, 99u);
  EXPECT_EQ(c.jobs, 4);
  EXPECT_TRUE(c.csv);
  EXPECT_TRUE(c.baseline);
  EXPECT_FALSE(c.options.verify);
  // run simulates one trial, so a trial count is refused, not dropped.
  const auto trials = P({"run", "--bench=CG", "--config=Serial", "--trials=5"});
  EXPECT_FALSE(trials.ok());
  EXPECT_EQ(trials.error, "unknown flag '--trials'");
}

TEST(CliParseTest, JobsDefaultsToOneAndRejectsBadValues) {
  EXPECT_EQ(P({"run", "--bench=CG", "--config=Serial"}).command->jobs, 1);
  EXPECT_FALSE(P({"run", "--bench=CG", "--config=Serial", "--jobs=0"}).ok());
  EXPECT_FALSE(P({"run", "--bench=CG", "--config=Serial", "--jobs=-2"}).ok());
}

TEST(CliParseTest, IntegerFlagsRefuseValuesTheyCannotHold) {
  // Refused at parse time: paxsim prints an `error:` line and exits 2
  // rather than run at a wrapped (-1 as 2^64-1) or clamped value.  An
  // out-of-range --jobs is only ever parsed here, never run.
  for (const char* bad :
       {"--grain=-1", "--seed=-1", "--seed=+5", "--chunk=-1",
        "--seed=18446744073709551616", "--jobs=4294967297", "--jobs=-1"}) {
    const ParseResult r =
        P({"run", "--bench=EP", "--config=Serial", "--class=S", bad});
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error.rfind("bad --", 0), 0u) << bad << ": " << r.error;
  }
  EXPECT_NE(P({"serve", "--jobs-file=p.json", "--max-cells=-1"})
                .error.find("bad --max-cells"),
            std::string::npos);
  EXPECT_NE(P({"tune", "--bench=EP", "--class=S", "--chunks=-1"})
                .error.find("bad --chunks"),
            std::string::npos);
}

TEST(CliParseTest, RunRequiresBenchAndConfig) {
  EXPECT_FALSE(P({"run", "--config=Serial"}).ok());
  EXPECT_FALSE(P({"run", "--bench=CG"}).ok());
  EXPECT_TRUE(P({"run", "--bench=CG", "--config=Serial"}).ok());
}

TEST(CliParseTest, PairRequiresTwoBenches) {
  EXPECT_FALSE(P({"pair", "--bench=CG", "--config=HT off -4-2"}).ok());
  EXPECT_TRUE(P({"pair", "--bench=CG,FT", "--config=HT off -4-2"}).ok());
}

TEST(CliParseTest, TwoProgramsRefuseASingleContextConfig) {
  // Two programs split the row's contexts; Serial has only one.
  for (const std::string sub : {"pair", "sched"}) {
    const auto r =
        parse({sub, "--bench=CG,FT", "--config=Serial", "--class=S"});
    EXPECT_FALSE(r.ok()) << sub;
    EXPECT_NE(r.error.find("at least two contexts"), std::string::npos)
        << r.error;
  }
  EXPECT_FALSE(P({"store", "get", "--store=results", "--mode=pair",
                  "--bench=CG,FT", "--config=Serial"})
                   .ok());
  EXPECT_TRUE(
      P({"store", "get", "--store=results", "--bench=CG", "--config=Serial"})
          .ok());
}

TEST(CliParseTest, RejectsUnknownValues) {
  EXPECT_FALSE(P({"frobnicate"}).ok());
  EXPECT_FALSE(P({"run", "--bench=ZZ", "--config=Serial"}).ok());
  EXPECT_FALSE(P({"run", "--bench=CG", "--config=HT on -16-4"}).ok());
  EXPECT_FALSE(P({"run", "--bench=CG", "--config=Serial", "--class=Q"}).ok());
  EXPECT_FALSE(P({"run", "--bench=CG", "--config=Serial", "--bogus=1"}).ok());
  EXPECT_FALSE(
      P({"sched", "--bench=CG,FT", "--config=HT on -8-2", "--policy=chaotic"})
          .ok());
}

TEST(CliParseTest, PredictParsesFlagsAndRequiresOneBench) {
  const auto r = P({"predict", "--bench=CG", "--config=HT on -8-2",
                    "--class=S", "--compare", "--csv"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.command->kind, Command::Kind::kPredict);
  ASSERT_EQ(r.command->benches.size(), 1u);
  EXPECT_EQ(r.command->benches[0], npb::Benchmark::kCG);
  EXPECT_TRUE(r.command->compare);
  EXPECT_TRUE(r.command->csv);

  EXPECT_FALSE(r.command->profile);  // predict never sets the run flag
  EXPECT_FALSE(P({"predict", "--config=HT on -8-2"}).ok());
  EXPECT_FALSE(P({"predict", "--bench=CG,FT", "--config=HT on -8-2"}).ok());
}

TEST(CliParseTest, RunAcceptsProfileFlag) {
  const auto r =
      P({"run", "--bench=IS", "--config=Serial", "--class=S", "--profile"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.command->profile);
  EXPECT_FALSE(
      P({"run", "--bench=CG", "--config=Serial"}).command->profile);
  // The profile is one serial run on a machine of its own with the
  // profiler as its one sink: a check cannot ride along, and a baseline, a
  // store or more workers would be dropped, so each is refused.
  for (const char* flag :
       {"--check=full", "--baseline", "--store=results", "--jobs=2"}) {
    const auto refused = P({"run", "--bench=EP", "--config=Serial",
                            "--class=S", "--profile", flag});
    EXPECT_FALSE(refused.ok()) << flag;
    EXPECT_EQ(refused.error.rfind("--profile", 0), 0u)
        << flag << ": " << refused.error;
  }
  // Their defaults, spelled out, stay accepted.
  EXPECT_TRUE(P({"run", "--bench=EP", "--config=Serial", "--class=S",
                 "--profile", "--jobs=1", "--store=off"})
                  .ok());
  EXPECT_TRUE(P({"run", "--bench=EP", "--config=HT off -2-1", "--class=S",
                 "--profile=off", "--baseline", "--jobs=2"})
                  .ok());
}

TEST(CliParseTest, SchedAcceptsEveryShippedPolicy) {
  for (const char* p : {"pinned-spread", "naive-pack", "random-migrating",
                        "ht-aware", "symbiotic"}) {
    const std::vector<std::string> args = {"sched", "--bench=CG,FT",
                                           "--config=HT on -8-2",
                                           std::string("--policy=") + p};
    const auto r = parse(args);
    EXPECT_TRUE(r.ok()) << p << ": " << r.error;
  }
}

// ---------------------------------------------------------------------------
// Per-word flag tables: each command word accepts exactly the flags it
// reads, and refuses every other flag any word accepts.
// ---------------------------------------------------------------------------

/// One token per flag the shared table of every word used to hold, valued
/// so that each word taking the flag accepts it.
const std::vector<std::string> kFlagUnion = {
    "--class=S", "--trials=2", "--seed=3", "--grain=2", "--sched=static",
    "--chunk=4", "--scale=8", "--machine=paxville", "--no-verify",
    "--check=race", "--trace=stacks", "--jobs=2", "--store=results",
    "--bench=CG", "--config=Serial", "--policy=naive-pack", "--csv",
    "--baseline", "--compare", "--profile", "--trace-out=t.json",
    "--regions", "--stacks", "--jobs-file=plan.json", "--max-cells=1",
    "--quiet", "--top-k=1", "--schedules=static", "--chunks=4",
    "--grains=2", "--scales=8", "--out=report.json", "--mode=single",
};

std::string flag_name(const std::string& token) {
  return token.substr(2, token.find('=') - 2);
}

TEST(CliFlagMatrixTest, EachWordAcceptsExactlyTheFlagsItReads) {
  const std::string cell =
      "class seed grain sched chunk scale machine no-verify ";
  struct WordCase {
    std::vector<std::string> word;      ///< the word (and store action)
    std::vector<std::string> required;  ///< flags the word cannot omit
    std::string accepts;                ///< its table's flag names
  };
  const WordCase cases[] = {
      {{"help"}, {}, ""},
      {{"list"}, {}, "machine"},
      {{"run"},
       {"--bench=CG", "--config=Serial"},
       cell + "check jobs store bench config csv baseline profile"},
      {{"pair"},
       {"--bench=CG,FT", "--config=HT off -4-2"},
       cell + "check store bench config csv"},
      {{"sched"},
       {"--bench=CG,FT", "--config=HT off -4-2"},
       cell + "check bench config csv policy"},
      {{"timeline"},
       {"--bench=CG", "--config=Serial"},
       cell + "check bench config csv"},
      {{"predict"},
       {"--bench=CG", "--config=Serial"},
       cell + "store bench config csv compare"},
      {{"trace"},
       {"--bench=CG", "--config=Serial"},
       cell + "trace bench config csv trace-out regions stacks"},
      {{"tune"},
       {},
       cell + "store bench csv top-k schedules chunks grains scales out"},
      {{"serve"},
       {"--jobs-file=plan.json"},
       "jobs-file store jobs max-cells quiet"},
      {{"store", "stat"}, {"--store=results"}, "store"},
      {{"store", "ls"}, {"--store=results"}, "store"},
      {{"store", "gc"}, {"--store=results"}, "store"},
      {{"store", "verify"}, {"--store=results"}, "store"},
      {{"store", "get"},
       {"--store=results", "--bench=CG", "--config=Serial"},
       cell + "store bench config mode"},
  };
  ASSERT_EQ(kFlagUnion.size(), 33u);
  std::set<std::string> listed;
  for (const WordCase& w : cases) {
    std::istringstream names(w.accepts);
    const std::set<std::string> accepts{
        std::istream_iterator<std::string>(names),
        std::istream_iterator<std::string>()};
    listed.insert(accepts.begin(), accepts.end());
    // The word and its required flags alone parse.
    std::vector<std::string> bare = w.word;
    bare.insert(bare.end(), w.required.begin(), w.required.end());
    const ParseResult base = parse(bare);
    ASSERT_TRUE(base.ok()) << w.word.back() << ": " << base.error;
    for (const std::string& token : kFlagUnion) {
      // The token goes first, so a required flag it repeats is overridden.
      std::vector<std::string> args = w.word;
      args.push_back(token);
      args.insert(args.end(), w.required.begin(), w.required.end());
      const ParseResult r = parse(args);
      const std::string name = flag_name(token);
      if (accepts.count(name) != 0) {
        EXPECT_TRUE(r.ok()) << w.word.back() << " " << token << ": "
                            << r.error;
      } else {
        EXPECT_EQ(r.error, "unknown flag '--" + name + "'")
            << w.word.back() << " " << token;
      }
    }
  }
  // Every flag is some word's, except --trials: no word runs more than
  // one trial.
  for (const std::string& token : kFlagUnion) {
    EXPECT_EQ(listed.count(flag_name(token)), token == "--trials=2" ? 0u : 1u)
        << token;
  }
}

TEST(CliFlagMatrixTest, UsageRendersEachWordsTable) {
  const std::string text = usage();
  EXPECT_EQ(text.find("full table"), std::string::npos);
  for (const char* section :
       {"\nlist:\n  --machine=", "\nrun: the cell flags and\n",
        "\nserve:\n", "\nstore stat|ls|gc|verify:\n  --store=",
        "\nstore get: the cell flags and\n", "\nhelp:\n  (no flags)\n"}) {
    EXPECT_NE(text.find(section), std::string::npos) << section;
  }
  EXPECT_EQ(text.find("--trials"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

int run_cli(std::initializer_list<const char*> args, std::string& out) {
  const auto parsed = P(args);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  std::ostringstream os, es;
  const int rc = execute(*parsed.command, os, es);
  out = os.str() + es.str();
  return rc;
}

TEST(CliExecTest, ListShowsEverything) {
  std::string out;
  EXPECT_EQ(run_cli({"list"}, out), 0);
  EXPECT_NE(out.find("CG"), std::string::npos);
  EXPECT_NE(out.find("HT on -8-2"), std::string::npos);
  EXPECT_NE(out.find("symbiotic"), std::string::npos);
}

TEST(CliExecTest, RunProducesMetrics) {
  std::string out;
  EXPECT_EQ(run_cli({"run", "--bench=EP", "--config=HT off -2-1",
                     "--class=S", "--baseline"},
                    out),
            0);
  EXPECT_NE(out.find("EP@HT off -2-1"), std::string::npos);
  EXPECT_NE(out.find("speedup,"), std::string::npos);
  EXPECT_NE(out.find("verified=yes"), std::string::npos);
}

TEST(CliExecTest, RunCsvIsMachineReadable) {
  std::string out;
  EXPECT_EQ(run_cli({"run", "--bench=EP", "--config=Serial", "--class=S",
                     "--csv"},
                    out),
            0);
  EXPECT_NE(out.find("EP@Serial,wall_cycles,"), std::string::npos);
  EXPECT_NE(out.find("EP@Serial,cpi,"), std::string::npos);
}

TEST(CliExecTest, PairReportsBothPrograms) {
  std::string out;
  EXPECT_EQ(run_cli({"pair", "--bench=EP,EP", "--config=HT off -2-1",
                     "--class=S"},
                    out),
            0);
  EXPECT_NE(out.find("EP[0]@"), std::string::npos);
  EXPECT_NE(out.find("EP[1]@"), std::string::npos);
}

TEST(CliExecTest, CheckedRunsExitThreeOnFindings) {
  std::string out;
  // The seeded-racy kernel: the report is printed, then the exit code says
  // it is not clean.
  EXPECT_EQ(run_cli({"run", "--bench=RW", "--config=HT off -4-2", "--class=S",
                     "--check=full", "--csv"},
                    out),
            kExitFindings);
  EXPECT_NE(out.find("\"clean\":false"), std::string::npos);
  EXPECT_EQ(run_cli({"pair", "--bench=RW,EP", "--config=HT off -4-2",
                     "--class=S", "--check=race"},
                    out),
            kExitFindings);
  EXPECT_EQ(run_cli({"sched", "--bench=RW,RW", "--config=HT off -4-2",
                     "--class=S", "--policy=random-migrating", "--check=full",
                     "--csv"},
                    out),
            kExitFindings);
  EXPECT_NE(out.find("\"clean\":false"), std::string::npos);
  EXPECT_EQ(run_cli({"timeline", "--bench=RW", "--config=HT off -4-2",
                     "--class=S", "--check=full", "--csv"},
                    out),
            kExitFindings);
  EXPECT_NE(out.find("\"clean\":false"), std::string::npos);
  // A clean report keeps exit 0.
  EXPECT_EQ(run_cli({"run", "--bench=CG", "--config=HT off -4-2", "--class=S",
                     "--check=full", "--csv"},
                    out),
            0);
  EXPECT_NE(out.find("\"clean\":true"), std::string::npos);
  // Migrations keep the checker's view of each thread (Team::repin reports
  // every move), so a migrating schedule of suite kernels stays clean.
  EXPECT_EQ(run_cli({"sched", "--bench=CG,FT", "--config=HT on -8-2",
                     "--class=S", "--policy=random-migrating", "--check=full",
                     "--csv"},
                    out),
            0);
  EXPECT_NE(out.find("\"clean\":true"), std::string::npos);
}

TEST(CliExecTest, SchedReportsMigrations) {
  std::string out;
  EXPECT_EQ(run_cli({"sched", "--bench=EP,EP", "--config=HT on -4-1",
                     "--class=S", "--policy=symbiotic"},
                    out),
            0);
  EXPECT_NE(out.find("migrations,"), std::string::npos);
}

TEST(CliParseTest, TimelineRequiresOneBenchAndConfig) {
  EXPECT_TRUE(P({"timeline", "--bench=EP", "--config=HT on -2-1"}).ok());
  EXPECT_FALSE(P({"timeline", "--bench=EP,CG", "--config=HT on -2-1"}).ok());
  EXPECT_FALSE(P({"timeline", "--bench=EP"}).ok());
}

TEST(CliExecTest, TimelineEmitsPerStepMetrics) {
  std::string out;
  EXPECT_EQ(run_cli({"timeline", "--bench=EP", "--config=HT off -2-1",
                     "--class=S"},
                    out),
            0);
  EXPECT_NE(out.find("step 0:"), std::string::npos);
  EXPECT_NE(out.find("cpi="), std::string::npos);
}

TEST(CliExecTest, TimelineCsv) {
  std::string out;
  EXPECT_EQ(run_cli({"timeline", "--bench=EP", "--config=Serial",
                     "--class=S", "--csv"},
                    out),
            0);
  EXPECT_NE(out.find("0,cpi,"), std::string::npos);
}

TEST(CliExecTest, PredictReportsPredictionAndProfileCost) {
  std::string out;
  EXPECT_EQ(run_cli({"predict", "--bench=EP", "--config=HT off -2-1",
                     "--class=S"},
                    out),
            0);
  EXPECT_NE(out.find("EP@HT off -2-1"), std::string::npos);
  EXPECT_NE(out.find("(predicted), speedup="), std::string::npos);
  EXPECT_NE(out.find("profile: collected"), std::string::npos);
  // A prediction runs no checker, so predict refuses --check.
  EXPECT_EQ(P({"predict", "--bench=EP", "--config=HT off -2-1", "--class=S",
               "--check=full"})
                .error,
            "unknown flag '--check'");
}

TEST(CliExecTest, PredictCsvEmitsJson) {
  std::string out;
  EXPECT_EQ(run_cli({"predict", "--bench=EP", "--config=Serial",
                     "--class=S", "--csv"},
                    out),
            0);
  EXPECT_NE(out.find("{\"schema_version\":1,\"kind\":\"predict\""),
            std::string::npos);
  EXPECT_NE(out.find("\"bench\":\"EP\""), std::string::npos);
  EXPECT_NE(out.find("\"speedup\":"), std::string::npos);
}

TEST(CliExecTest, PredictCompareShowsErrorTable) {
  std::string out;
  EXPECT_EQ(run_cli({"predict", "--bench=EP", "--config=HT off -2-1",
                     "--class=S", "--compare"},
                    out),
            0);
  EXPECT_NE(out.find("prediction vs simulation"), std::string::npos);
  EXPECT_NE(out.find("rel_error"), std::string::npos);
  EXPECT_NE(out.find("x faster"), std::string::npos);
}

TEST(CliExecTest, RunProfilePrintsSummaryAndRequiresSerial) {
  std::string out;
  EXPECT_EQ(run_cli({"run", "--bench=EP", "--config=Serial", "--class=S",
                     "--profile"},
                    out),
            0);
  EXPECT_NE(out.find("profile:"), std::string::npos);
  EXPECT_NE(out.find("barriers"), std::string::npos);

  // Off the Serial row the profile is refused before anything runs.
  const auto parallel = P({"run", "--bench=EP", "--config=HT off -2-1",
                           "--class=S", "--profile"});
  EXPECT_FALSE(parallel.ok());
  EXPECT_NE(parallel.error.find("--profile"), std::string::npos);
}

TEST(CliParseTest, TraceParsesFlagsAndValidates) {
  const auto r = P({"trace", "--bench=CG", "--config=HT on -8-2",
                    "--class=S", "--trace=full", "--trace-out=/tmp/t.json",
                    "--regions"});
  ASSERT_TRUE(r.ok()) << r.error;
  const Command& c = *r.command;
  EXPECT_EQ(c.kind, Command::Kind::kTrace);
  EXPECT_EQ(c.trace, sim::TraceMode::kFull);
  EXPECT_EQ(c.trace_out, "/tmp/t.json");
  EXPECT_TRUE(c.regions);
  EXPECT_FALSE(c.stacks);

  EXPECT_FALSE(P({"trace", "--config=Serial"}).ok());
  EXPECT_FALSE(P({"trace", "--bench=CG"}).ok());
  EXPECT_FALSE(P({"trace", "--bench=CG", "--config=Serial",
                  "--trace=bogus"}).ok());
  // The trace word always records, so `off` is no depth of it.
  EXPECT_EQ(P({"trace", "--bench=CG", "--config=Serial", "--trace=off"})
                .error,
            "bad --trace 'off' (use stacks, events or full)");
  EXPECT_EQ(P({"trace", "--bench=CG", "--config=Serial"}).command->trace,
            sim::TraceMode::kStacks);
  // trace runs no checker (one sink per machine), so --check is refused.
  EXPECT_EQ(P({"trace", "--bench=CG", "--config=Serial", "--check=full"})
                .error,
            "unknown flag '--check'");
  // The file is written after the whole run, so a directory that does not
  // exist is refused up front; a bare name lands in the working directory.
  EXPECT_EQ(P({"trace", "--bench=CG", "--config=Serial",
               "--trace-out=/nonexistent/d/x.json"})
                .error,
            "bad --trace-out '/nonexistent/d/x.json' (no directory "
            "'/nonexistent/d')");
  EXPECT_TRUE(P({"trace", "--bench=CG", "--config=Serial",
                 "--trace-out=t.json"})
                  .ok());
}

TEST(CliExecTest, TraceReportsStacks) {
  std::string out;
  EXPECT_EQ(run_cli({"trace", "--bench=EP", "--config=HT off -2-1",
                     "--class=S"},
                    out),
            0);
  EXPECT_NE(out.find("trace: mode=stacks"), std::string::npos);
  EXPECT_NE(out.find("per-context CPI stack"), std::string::npos);
  EXPECT_NE(out.find("per-region CPI stack"), std::string::npos);
  EXPECT_NE(out.find("smt_stretch"), std::string::npos);
}

TEST(CliExecTest, TraceCsvEmitsJson) {
  std::string out;
  EXPECT_EQ(run_cli({"trace", "--bench=EP", "--config=Serial", "--class=S",
                     "--csv"},
                    out),
            0);
  EXPECT_NE(out.find("{\"schema_version\":1,\"kind\":\"trace\""),
            std::string::npos);
  EXPECT_NE(out.find("\"contexts\":"), std::string::npos);
  EXPECT_NE(out.find("\"regions\":"), std::string::npos);
}

TEST(CliExecTest, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(run_cli({"help"}, out), 0);
  EXPECT_NE(out.find("usage: paxsim"), std::string::npos);
}

// ---------------------------------------------------------------------------
// paxserve: the serve / store subcommands and the --store= flag.
// ---------------------------------------------------------------------------

TEST(CliParseTest, ServeParsesItsFlags) {
  const auto r = P({"serve", "--jobs-file=plan.json", "--store=results",
                    "--max-cells=10", "--jobs=2", "--quiet"});
  ASSERT_TRUE(r.ok()) << r.error;
  const Command& c = *r.command;
  EXPECT_EQ(c.kind, Command::Kind::kServe);
  EXPECT_EQ(c.jobs_file, "plan.json");
  EXPECT_EQ(c.store_dir, "results");
  EXPECT_EQ(c.max_cells, 10u);
  EXPECT_EQ(c.jobs, 2);
  EXPECT_TRUE(c.quiet);
}

TEST(CliParseTest, ServeRequiresAJobsFile) {
  const auto r = P({"serve"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("jobs-file"), std::string::npos);
}

TEST(CliParseTest, ServeRejectsBadScalingFlags) {
  const auto procs = P({"serve", "--jobs-file=p.json", "--procs=2"});
  EXPECT_FALSE(procs.ok());
  EXPECT_NE(procs.error.find("unknown flag '--procs'"), std::string::npos)
      << procs.error;
  EXPECT_FALSE(P({"serve", "--jobs-file=p.json", "--max-cells=0"}).ok());
}

TEST(CliParseTest, StoreOffMeansDetached) {
  const auto r = P({"run", "--bench=EP", "--config=Serial", "--store=off"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.command->store_dir.empty());
  EXPECT_FALSE(P({"run", "--bench=EP", "--config=Serial", "--store="}).ok());
}

TEST(CliParseTest, StoreParsesActionsAndValidates) {
  for (const char* action : {"stat", "ls", "gc", "verify"}) {
    const auto r = P({"store", action, "--store=results"});
    ASSERT_TRUE(r.ok()) << action << ": " << r.error;
    EXPECT_EQ(r.command->kind, Command::Kind::kStore);
    EXPECT_EQ(r.command->store_action, action);
    EXPECT_EQ(r.command->store_dir, "results");
  }
  EXPECT_FALSE(P({"store", "--store=results"}).ok());       // no action
  EXPECT_FALSE(P({"store", "frob", "--store=results"}).ok());
  EXPECT_FALSE(P({"store", "stat"}).ok());                  // no --store
}

TEST(CliExecTest, ServeComputesThenStoreAnswers) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "paxsim_cli_serve";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store = (dir / "store").string();
  const std::string plan = (dir / "plan.json").string();
  std::ofstream(plan) << R"({"schema_version":1,"kind":"job_file",
      "defaults":{"class":"S","trials":1},
      "sweeps":[{"benches":["EP"],"configs":["Serial"],
                 "modes":["single"]}]})";

  const std::string jobs_flag = "--jobs-file=" + plan;
  const std::string store_flag = "--store=" + store;
  std::string out;
  EXPECT_EQ(run_cli({"serve", jobs_flag.c_str(), store_flag.c_str()}, out),
            0);
  EXPECT_NE(out.find("\"kind\":\"serve_summary\""), std::string::npos);
  EXPECT_NE(out.find("\"computed\":1"), std::string::npos);

  // Warm re-run: the line CI greps for.
  std::string out2;
  EXPECT_EQ(run_cli({"serve", jobs_flag.c_str(), store_flag.c_str()}, out2),
            0);
  EXPECT_NE(out2.find("\"computed\":0"), std::string::npos);
  EXPECT_NE(out2.find("\"store_hits\":1"), std::string::npos);

  // And the maintenance surface sees the entry.
  std::string stat;
  EXPECT_EQ(run_cli({"store", "stat", store_flag.c_str()}, stat), 0);
  EXPECT_NE(stat.find("\"kind\":\"store_stat\""), std::string::npos);
  EXPECT_NE(stat.find("\"entries\":1"), std::string::npos);
  std::string verify;
  EXPECT_EQ(run_cli({"store", "verify", store_flag.c_str()}, verify), 0);
  EXPECT_NE(verify.find("\"ok\":1"), std::string::npos);
  // Every entry serve wrote is one its keys reach.
  std::string gc;
  EXPECT_EQ(run_cli({"store", "gc", store_flag.c_str()}, gc), 0);
  EXPECT_NE(gc.find("\"removed_unreachable\":0"), std::string::npos) << gc;
}

TEST(CliExecTest, CheckedRunStoresOnlyItsBaseline) {
  // A checked run is not a cell: the store never sees it.  Its serial
  // baseline is an ordinary engine cell, which the store keeps.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "paxsim_cli_checkedstore";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store_flag = "--store=" + (dir / "store").string();

  std::string first, again, stat;
  EXPECT_EQ(run_cli({"run", "--bench=CG", "--config=HT off -4-2", "--class=S",
                     "--check=full", "--baseline", store_flag.c_str()},
                    first),
            0);
  EXPECT_NE(first.find("speedup,"), std::string::npos) << first;
  EXPECT_NE(first.find("check report (mode=full)"), std::string::npos)
      << first;
  EXPECT_EQ(run_cli({"store", "stat", store_flag.c_str()}, stat), 0);
  EXPECT_NE(stat.find("\"entries\":1,"), std::string::npos) << stat;
  // That one entry is the serial baseline.
  EXPECT_EQ(run_cli({"store", "get", store_flag.c_str(), "--bench=CG",
                     "--config=Serial", "--class=S"},
                    stat),
            0);
  EXPECT_EQ(run_cli({"run", "--bench=CG", "--config=HT off -4-2", "--class=S",
                     "--check=full", "--baseline", store_flag.c_str()},
                    again),
            0);
  EXPECT_EQ(first, again) << "a stored baseline must render identically";
}

TEST(CliExecTest, RunWithStoreIsIdenticalAcrossRuns) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "paxsim_cli_runstore";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store_flag = "--store=" + (dir / "store").string();

  std::string cold, warm;
  EXPECT_EQ(run_cli({"run", "--bench=EP", "--config=Serial", "--class=S",
                     "--csv", store_flag.c_str()},
                    cold),
            0);
  EXPECT_EQ(run_cli({"run", "--bench=EP", "--config=Serial", "--class=S",
                     "--csv", store_flag.c_str()},
                    warm),
            0);
  EXPECT_EQ(cold, warm) << "stored answers must render identically";
}

// ---------------------------------------------------------------------------
// paxtune: the tune subcommand.
// ---------------------------------------------------------------------------

TEST(CliParseTest, TuneParsesItsFlags) {
  const auto r = P({"tune", "--bench=CG,MG", "--class=S", "--top-k=3",
                    "--schedules=default,dynamic", "--chunks=1,8",
                    "--grains=1,2", "--scales=8,16", "--out=/tmp/tune.json"});
  ASSERT_TRUE(r.ok()) << r.error;
  const Command& c = *r.command;
  EXPECT_EQ(c.kind, Command::Kind::kTune);
  ASSERT_EQ(c.benches.size(), 2u);
  EXPECT_EQ(c.tune.top_k, 3);
  EXPECT_EQ(c.tune.sched_kinds, (std::vector<int>{-1, 1}));
  EXPECT_EQ(c.tune.chunks, (std::vector<std::size_t>{1, 8}));
  EXPECT_EQ(c.tune.grains, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(c.tune.scales, (std::vector<double>{8.0, 16.0}));
  EXPECT_EQ(c.tune_out, "/tmp/tune.json");
}

TEST(CliParseTest, TuneDefaultsAndRejections) {
  const auto r = P({"tune"});
  ASSERT_TRUE(r.ok()) << r.error;  // benches default to the whole suite
  EXPECT_TRUE(r.command->benches.empty());
  EXPECT_EQ(r.command->tune.top_k, 2);
  // One search: no strategy to pick, no annealing budget to set.
  EXPECT_EQ(P({"tune", "--strategy=grid"}).error, "unknown flag '--strategy'");
  EXPECT_EQ(P({"tune", "--budget=4"}).error, "unknown flag '--budget'");
  EXPECT_FALSE(P({"tune", "--top-k=0"}).ok());
  EXPECT_FALSE(P({"tune", "--schedules=fastest"}).ok());
  EXPECT_FALSE(P({"tune", "--grains=0"}).ok());
  EXPECT_FALSE(P({"tune", "--scales=8,nan"}).ok());
  EXPECT_FALSE(P({"tune", "--scales=inf"}).ok());
  // The report is written after the search: a missing directory is refused
  // before it starts.
  EXPECT_EQ(P({"tune", "--out=/nonexistent/d/x.json"}).error,
            "bad --out '/nonexistent/d/x.json' (no directory "
            "'/nonexistent/d')");
}

TEST(CliParseTest, TuneRefusesAnAxisListBesideItsCellFlag) {
  // An axis list replaces the knob of the cell flag it spans; given both,
  // one would be dropped silently, so the pair is refused (exit 2).
  const char* pairs[][2] = {{"--sched=dynamic", "--schedules=static"},
                            {"--chunk=4", "--chunks=1,8"},
                            {"--grain=2", "--grains=1,2"},
                            {"--scale=8", "--scales=8,16"}};
  for (const auto& pair : pairs) {
    const std::string cell = pair[0];
    const std::string axis = pair[1];
    const std::string want = "--" + cell.substr(2, cell.find('=') - 2) +
                             " and --" + axis.substr(2, axis.find('=') - 2) +
                             " both set one axis";
    for (const auto& args :
         {std::vector<std::string>{"tune", cell, axis},
          std::vector<std::string>{"tune", axis, cell}}) {
      const ParseResult r = parse(args);
      EXPECT_FALSE(r.ok()) << cell << " " << axis;
      EXPECT_NE(r.error.find(want), std::string::npos) << r.error;
    }
    EXPECT_TRUE(P({"tune", pair[0]}).ok()) << cell;
    EXPECT_TRUE(P({"tune", pair[1]}).ok()) << axis;
  }
  // Each list value goes through its cell flag's own row.
  const ParseResult bad = P({"tune", "--schedules=static,fastest"});
  EXPECT_NE(bad.error.find("bad --sched 'fastest'"), std::string::npos)
      << bad.error;
  EXPECT_NE(P({"tune", "--chunks=4,x"}).error.find("bad --chunk"),
            std::string::npos);
  EXPECT_FALSE(P({"tune", "--schedules="}).ok());
}

TEST(CliExecTest, TuneFindsTheKnownWinnerForCG) {
  std::string out;
  EXPECT_EQ(run_cli({"tune", "--bench=CG", "--class=S"}, out), 0);
  EXPECT_NE(out.find("CG: best"), std::string::npos);
  EXPECT_NE(out.find("HT on -8-2"), std::string::npos);
  EXPECT_NE(out.find("engine:"), std::string::npos);
}

TEST(CliExecTest, TuneSweepsIsOverDynamicSchedules) {
  // IS's counting and ranking loops stay static under an override, so a
  // dynamic schedule axis no longer fails IS's verification.
  std::string out;
  EXPECT_EQ(run_cli({"tune", "--bench=IS", "--class=S",
                     "--schedules=static,dynamic", "--chunks=4,8",
                     "--grains=1,2"},
                    out),
            0)
      << out;
  EXPECT_NE(out.find("IS: best"), std::string::npos) << out;
}

TEST(CliExecTest, TuneCsvEmitsTheTuningReport) {
  std::string out;
  EXPECT_EQ(run_cli({"tune", "--bench=IS", "--class=S", "--csv"}, out), 0);
  EXPECT_NE(out.find("\"kind\":\"tuning_report\""), std::string::npos);
  EXPECT_EQ(out.find("\"strategy\""), std::string::npos);
  EXPECT_NE(out.find("\"best\":"), std::string::npos);
}

TEST(CliExecTest, PredictAndTuneNoteAnUnmeasuredMachine) {
  // docs/CALIBRATION.md measures the model's error bands on Paxville only:
  // any other machine gets one note on stderr.
  const auto stderr_of = [](const std::vector<std::string>& args) {
    const ParseResult r = parse(args);
    EXPECT_TRUE(r.ok()) << r.error;
    std::ostringstream os, es;
    EXPECT_EQ(execute(*r.command, os, es), 0);
    EXPECT_EQ(os.str().find("note:"), std::string::npos);
    return es.str();
  };
  const std::vector<std::string> predict = {"predict", "--bench=EP",
                                            "--config=Serial", "--class=S"};
  EXPECT_EQ(stderr_of(predict), "");
  std::vector<std::string> args = predict;
  args.push_back("--machine=paxville");
  EXPECT_EQ(stderr_of(args), "");
  args.back() = "--machine=woodcrest";
  EXPECT_EQ(stderr_of(args),
            "note: the model's error bands are unmeasured on machine "
            "'woodcrest' (docs/CALIBRATION.md measures them on paxville "
            "only)\n");
  EXPECT_NE(stderr_of({"tune", "--bench=EP", "--class=S", "--csv",
                       "--machine=woodcrest"})
                .find("note: the model's error bands are unmeasured"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// store get: the query front-end.
// ---------------------------------------------------------------------------

TEST(CliParseTest, StoreGetParsesDigestOrCellAxes) {
  const auto by_digest = P({"store", "get", "0123456789abcdef0123456789abcdef",
                            "--store=results"});
  ASSERT_TRUE(by_digest.ok()) << by_digest.error;
  EXPECT_EQ(by_digest.command->store_action, "get");
  EXPECT_EQ(by_digest.command->store_digest,
            "0123456789abcdef0123456789abcdef");

  const auto by_axes = P({"store", "get", "--store=results", "--bench=EP",
                          "--config=Serial", "--class=S"});
  ASSERT_TRUE(by_axes.ok()) << by_axes.error;
  EXPECT_TRUE(by_axes.command->store_digest.empty());

  EXPECT_FALSE(P({"store", "get", "--store=results"}).ok());  // no cell named
  EXPECT_FALSE(P({"store", "get", "0123"}).ok());             // no --store

  // The bench count must match --mode: two for a pair, one otherwise.
  const auto one_for_pair =
      P({"store", "get", "--store=results", "--mode=pair", "--bench=CG",
         "--config=HT on -2-1", "--class=S"});
  EXPECT_FALSE(one_for_pair.ok());
  EXPECT_NE(one_for_pair.error.find("--mode=pair"), std::string::npos)
      << one_for_pair.error;
  for (const char* mode : {"--mode=single", "--mode=predict"}) {
    const auto two_for_one =
        P({"store", "get", "--store=results", mode, "--bench=EP,CG",
           "--config=HT on -2-1", "--class=S"});
    EXPECT_FALSE(two_for_one.ok()) << mode;
    EXPECT_NE(two_for_one.error.find("one benchmark"), std::string::npos)
        << two_for_one.error;
  }
  EXPECT_TRUE(P({"store", "get", "--store=results", "--mode=pair",
                 "--bench=EP,CG", "--config=HT on -2-1", "--class=S"})
                  .ok());
}

TEST(CliExecTest, StoreGetRoundTripsAComputedCell) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "paxsim_cli_storeget";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store_flag = "--store=" + (dir / "store").string();

  std::string run_out;
  EXPECT_EQ(run_cli({"run", "--bench=EP", "--config=Serial", "--class=S",
                     store_flag.c_str()},
                    run_out),
            0);

  // Name the cell by its axes: the CellKey::from digest must hit the store.
  std::string got;
  EXPECT_EQ(run_cli({"store", "get", store_flag.c_str(), "--bench=EP",
                     "--config=Serial", "--class=S"},
                    got),
            0);
  EXPECT_NE(got.find("\"kind\":\"stored_cell\""), std::string::npos);
  EXPECT_NE(got.find("\"wall_cycles\""), std::string::npos);

  // A pair cell and a prediction, named the same way.
  EXPECT_EQ(run_cli({"pair", "--bench=EP,IS", "--config=HT on -2-1",
                     "--class=S", store_flag.c_str()},
                    run_out),
            0);
  EXPECT_EQ(run_cli({"store", "get", store_flag.c_str(), "--mode=pair",
                     "--bench=EP,IS", "--config=HT on -2-1", "--class=S"},
                    got),
            0);
  EXPECT_NE(got.find("\"payload\":\"pair\""), std::string::npos) << got;
  EXPECT_EQ(run_cli({"predict", "--bench=EP", "--config=HT on -2-1",
                     "--class=S", store_flag.c_str()},
                    run_out),
            0);
  EXPECT_EQ(run_cli({"store", "get", store_flag.c_str(), "--mode=predict",
                     "--bench=EP", "--config=HT on -2-1", "--class=S"},
                    got),
            0);
  EXPECT_NE(got.find("\"payload\":\"prediction\""), std::string::npos)
      << got;

  // An absent digest is a clean failure, not a crash.
  std::string miss;
  EXPECT_EQ(run_cli({"store", "get", "00000000000000000000000000000000",
                     store_flag.c_str()},
                    miss),
            1);
  EXPECT_NE(miss.find("no stored object"), std::string::npos);
}

}  // namespace
}  // namespace paxsim::cli
