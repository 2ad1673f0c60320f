// Serve-driver tests: cold compute / warm hit accounting, NDJSON progress
// validity, --max-cells interruption + resume, and run_serve's store-dir
// resolution and error handling.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "report/parse.hpp"
#include "serve/store.hpp"

namespace paxsim::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory for one test (job files + stores live here).
fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "paxsim_serve" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A small four-cell plan: 2 benches x 1 config x {single, predict}.
const char* kSmallJob =
    R"({"schema_version":1,"kind":"job_file",
        "defaults":{"class":"S","trials":1},
        "sweeps":[{"benches":["CG","MG"],"configs":["HT on -2-1"],
                   "modes":["single","predict"]}]})";

JobPlan small_plan() {
  JobPlan plan;
  std::string error;
  EXPECT_TRUE(parse_job_file(kSmallJob, &plan, &error)) << error;
  EXPECT_EQ(plan.cells.size(), 4u);
  return plan;
}

std::vector<std::string> ndjson_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(ServeCellsTest, ColdRunComputesEverythingWarmRunComputesNothing) {
  const fs::path dir = fresh_dir("cold_warm");
  const JobPlan plan = small_plan();
  ServeOptions opt;

  const ServeSummary cold =
      serve_cells(plan, (dir / "store").string(), opt, nullptr);
  EXPECT_EQ(cold.total, plan.cells.size());
  EXPECT_EQ(cold.computed, plan.cells.size());
  EXPECT_EQ(cold.store_hits, 0u);
  EXPECT_EQ(cold.skipped, 0u);
  EXPECT_EQ(cold.failures, 0u);

  const ServeSummary warm =
      serve_cells(plan, (dir / "store").string(), opt, nullptr);
  EXPECT_EQ(warm.store_hits, plan.cells.size());
  EXPECT_EQ(warm.computed, 0u) << "a warmed store must answer every cell";
}

TEST(ServeCellsTest, CorruptEntryIsRecomputedNotCountedAsAHit) {
  const fs::path dir = fresh_dir("corrupt");
  const JobPlan plan = small_plan();
  const std::string store = (dir / "store").string();
  ServeOptions opt;
  serve_cells(plan, store, opt, nullptr);

  // Overwrite one committed entry of each payload kind, as a torn or
  // foreign write would.
  std::vector<fs::path> victims;
  for (const char* payload : {"\"payload\":\"single\"",
                              "\"payload\":\"prediction\""}) {
    for (const auto& e :
         fs::recursive_directory_iterator(fs::path(store) / "objects")) {
      if (!e.is_regular_file() || e.path().extension() != ".json") continue;
      std::ifstream in(e.path());
      const std::string text{std::istreambuf_iterator<char>(in), {}};
      if (text.find(payload) != std::string::npos) {
        victims.push_back(e.path());
        break;
      }
    }
  }
  ASSERT_EQ(victims.size(), 2u);
  for (const fs::path& v : victims) {
    std::ofstream(v, std::ios::trunc) << "{garbage";
  }

  // The probe is the engine's validating load: each entry is quarantined
  // and its cell computed again, not reported as a hit.
  const ServeSummary warm = serve_cells(plan, store, opt, nullptr);
  EXPECT_EQ(warm.store_hits, plan.cells.size() - 2);
  EXPECT_EQ(warm.computed, 2u);
  EXPECT_EQ(warm.failures, 0u);
  for (const fs::path& v : victims) {
    EXPECT_TRUE(fs::exists(v.string() + ".quarantined")) << v;
  }
  // The recomputed cells were filed again.
  const ServeSummary again = serve_cells(plan, store, opt, nullptr);
  EXPECT_EQ(again.store_hits, plan.cells.size());
  EXPECT_EQ(again.computed, 0u);
}

TEST(ServeCellsTest, EntryOfAnotherFormatIsRecomputedAndReplaced) {
  const fs::path dir = fresh_dir("restamped");
  const JobPlan plan = small_plan();
  const std::string store = (dir / "store").string();
  ServeOptions opt;
  serve_cells(plan, store, opt, nullptr);

  // Re-stamp one entry as written by another store format: load rejects it
  // without quarantining it.
  const std::string needle =
      "\"store_format\":" + std::to_string(kStoreFormatVersion);
  fs::path victim;
  std::string text;
  for (const auto& e :
       fs::recursive_directory_iterator(fs::path(store) / "objects")) {
    if (!e.is_regular_file() || e.path().extension() != ".json") continue;
    std::ifstream in(e.path());
    text.assign(std::istreambuf_iterator<char>(in), {});
    victim = e.path();
    break;
  }
  ASSERT_FALSE(victim.empty());
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, needle.size(), "\"store_format\":999");
  std::ofstream(victim, std::ios::trunc) << text;

  // The next pass computes that cell and its commit replaces the entry...
  const ServeSummary next = serve_cells(plan, store, opt, nullptr);
  EXPECT_EQ(next.store_hits, plan.cells.size() - 1);
  EXPECT_EQ(next.computed, 1u);
  EXPECT_EQ(next.failures, 0u);
  std::ifstream in(victim);
  const std::string replaced{std::istreambuf_iterator<char>(in), {}};
  EXPECT_NE(replaced.find(needle), std::string::npos) << replaced;
  // ...so the pass after that answers it from the store.
  const ServeSummary after = serve_cells(plan, store, opt, nullptr);
  EXPECT_EQ(after.store_hits, plan.cells.size());
  EXPECT_EQ(after.computed, 0u);
}

TEST(ServeCellsTest, ProgressStreamIsValidNdjson) {
  const fs::path dir = fresh_dir("ndjson");
  const JobPlan plan = small_plan();
  ServeOptions opt;
  std::ostringstream progress;
  serve_cells(plan, (dir / "store").string(), opt, &progress);

  // serve_cells streams one line per cell; the summary line is run_serve's
  // (tested below through the full entry point).
  const std::vector<std::string> lines = ndjson_lines(progress.str());
  ASSERT_EQ(lines.size(), plan.cells.size());
  for (const std::string& line : lines) {
    std::string error;
    report::JsonValue v;
    ASSERT_TRUE(report::parse_json_value(line, &v, &error))
        << error << "\n" << line;
    const report::JsonValue* schema = v.find("schema_version");
    std::uint64_t version = 0;
    EXPECT_TRUE(schema != nullptr && schema->as_u64(&version));
    EXPECT_EQ(version, 1u);
    EXPECT_EQ(v.string_or("kind", ""), "serve_progress");
    EXPECT_EQ(v.string_or("outcome", ""), "computed");
    EXPECT_EQ(v.string_or("digest", "").size(), 32u);
  }

  // The warm pass reports every outcome as a hit — nothing computes.
  std::ostringstream warm;
  serve_cells(plan, (dir / "store").string(), opt, &warm);
  EXPECT_EQ(warm.str().find("\"outcome\":\"computed\""), std::string::npos);
  EXPECT_NE(warm.str().find("\"outcome\":\"hit\""), std::string::npos);
}

TEST(ServeCellsTest, MaxCellsInterruptsAndResumeFinishesTheJob) {
  const JobPlan plan = small_plan();
  // The bound holds on one thread and on the worker pool alike.
  for (const int jobs : {1, 3}) {
    SCOPED_TRACE(testing::Message() << "jobs " << jobs);
    const fs::path dir = fresh_dir("resume");
    const std::string store = (dir / "store").string();
    ServeOptions opt;
    opt.jobs = jobs;
    opt.max_cells = 3;

    const ServeSummary first = serve_cells(plan, store, opt, nullptr);
    EXPECT_EQ(first.computed, 3u);
    EXPECT_EQ(first.skipped, 1u);
    EXPECT_EQ(first.store_hits, 0u);

    // The "interrupted" run left its finished cells behind; the re-run
    // picks up exactly where it stopped — nothing recomputed.
    const ServeSummary second = serve_cells(plan, store, opt, nullptr);
    EXPECT_EQ(second.store_hits, 3u);
    EXPECT_EQ(second.computed, 1u);
    EXPECT_EQ(second.skipped, 0u);

    const ServeSummary third = serve_cells(plan, store, opt, nullptr);
    EXPECT_EQ(third.store_hits, plan.cells.size());
    EXPECT_EQ(third.computed, 0u);
  }
}

TEST(ServeCellsTest, SummaryInvariantHolds) {
  const JobPlan plan = small_plan();
  for (const int jobs : {1, 3}) {
    SCOPED_TRACE(testing::Message() << "jobs " << jobs);
    const fs::path dir = fresh_dir("invariant");
    ServeOptions opt;
    opt.jobs = jobs;
    opt.max_cells = 2;
    for (int pass = 0; pass < 3; ++pass) {
      const ServeSummary s =
          serve_cells(plan, (dir / "store").string(), opt, nullptr);
      EXPECT_EQ(s.total, s.store_hits + s.computed + s.skipped + s.failures)
          << "pass " << pass;
    }
  }
}

TEST(RunServeTest, ComputesThenServesFromTheJobFileStore) {
  const fs::path dir = fresh_dir("run_serve");
  // The job file names its own store — no --store needed.
  std::string text(kSmallJob);
  text.insert(text.find("\"defaults\""),
              "\"store\":\"" + (dir / "store").string() + "\",");
  const fs::path job = dir / "plan.json";
  std::ofstream(job) << text;

  ServeOptions opt;
  opt.jobs_file = job.string();
  std::ostringstream out, err;
  ASSERT_EQ(run_serve(opt, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("\"computed\":4"), std::string::npos) << out.str();

  std::ostringstream out2, err2;
  ASSERT_EQ(run_serve(opt, out2, err2), 0) << err2.str();
  EXPECT_NE(out2.str().find("\"computed\":0"), std::string::npos)
      << out2.str();
  EXPECT_NE(out2.str().find("\"store_hits\":4"), std::string::npos);
}

TEST(RunServeTest, StoreFlagOverridesTheJobFileStore) {
  const fs::path dir = fresh_dir("override");
  std::string text(kSmallJob);
  text.insert(text.find("\"defaults\""),
              "\"store\":\"" + (dir / "file_store").string() + "\",");
  const fs::path job = dir / "plan.json";
  std::ofstream(job) << text;

  ServeOptions opt;
  opt.jobs_file = job.string();
  opt.store_dir = (dir / "flag_store").string();
  opt.progress = false;
  std::ostringstream out, err;
  ASSERT_EQ(run_serve(opt, out, err), 0) << err.str();
  EXPECT_TRUE(fs::exists(dir / "flag_store" / "paxstore.json"));
  EXPECT_FALSE(fs::exists(dir / "file_store"));
  // --quiet still prints the one summary line.
  EXPECT_NE(out.str().find("\"kind\":\"serve_summary\""), std::string::npos);
  EXPECT_EQ(out.str().find("\"kind\":\"serve_progress\""), std::string::npos);
}

TEST(RunServeTest, FailsCleanlyOnBadInput) {
  const fs::path dir = fresh_dir("bad_input");
  ServeOptions opt;
  std::ostringstream out, err;

  opt.jobs_file = (dir / "missing.json").string();
  EXPECT_EQ(run_serve(opt, out, err), 1);
  EXPECT_FALSE(err.str().empty());

  const fs::path bad = dir / "bad.json";
  std::ofstream(bad) << "{\"kind\":\"job_file\"";
  opt.jobs_file = bad.string();
  std::ostringstream out2, err2;
  EXPECT_EQ(run_serve(opt, out2, err2), 1);

  // A job file with no store anywhere cannot run.
  const fs::path nostore = dir / "nostore.json";
  std::ofstream(nostore) << kSmallJob;
  opt.jobs_file = nostore.string();
  opt.store_dir.clear();
  std::ostringstream out3, err3;
  EXPECT_EQ(run_serve(opt, out3, err3), 1);
  EXPECT_NE(err3.str().find("store"), std::string::npos) << err3.str();
}

}  // namespace
}  // namespace paxsim::serve
