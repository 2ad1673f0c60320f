// Integration test: paxlint over the repo's own tree, exactly as CI runs
// it (same loader, same roots — lint_io.hpp is shared with the driver).
// Two invariants:
//   1. the racy.* diagnostic kernels are flagged by shared-scratch (and
//      carry their seeded-race suppressions), proving the checks see
//      through the real kernels' code shapes, and
//   2. the tree as a whole has zero unsuppressed findings — the gate CI
//      enforces with `cmake --build build --target paxlint`.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "checks.hpp"
#include "lint_io.hpp"
#include "report/parse.hpp"
#include "source.hpp"

namespace {

const paxlint::LintResult& tree_result() {
  static const paxlint::LintResult result = [] {
    paxlint::Project project;
    std::string error;
    const bool ok = paxlint::load_tree(
        project, PAXSIM_SOURCE_DIR,
        {"src", "bench", "tests", "examples", "tools"}, error);
    EXPECT_TRUE(ok) << error;
    return paxlint::run_lint(project, {});
  }();
  return result;
}

TEST(PaxlintTree, RacyKernelsAreFlaggedBySharedScratch) {
  const paxlint::LintResult& r = tree_result();
  int racy_findings = 0;
  bool saw_rmw = false;
  bool saw_publish_poll = false;
  for (const paxlint::Finding& f : r.findings) {
    if (f.path != "src/npb/kernels/racy.cpp") continue;
    EXPECT_EQ(f.check, "shared-scratch") << f.message;
    EXPECT_TRUE(f.suppressed) << f.message;
    EXPECT_NE(f.rationale.find("seeded diagnostic race"), std::string::npos);
    ++racy_findings;
    if (f.message.find("read-modify-write") != std::string::npos) {
      saw_rmw = true;
    }
    if (f.message.find("publish/poll") != std::string::npos) {
      saw_publish_poll = true;
    }
  }
  EXPECT_GE(racy_findings, 3);
  EXPECT_TRUE(saw_rmw);
  EXPECT_TRUE(saw_publish_poll);
}

TEST(PaxlintTree, TreeHasZeroUnsuppressedFindings) {
  const paxlint::LintResult& r = tree_result();
  for (const paxlint::Finding& f : r.findings) {
    EXPECT_TRUE(f.suppressed)
        << f.path << ":" << f.line << ": " << f.check << ": " << f.message;
  }
  EXPECT_EQ(r.unsuppressed(), 0u);
  // Suppressions must not rot either: every one matches a live finding.
  for (const paxlint::UnusedSuppression& u : r.unused) {
    ADD_FAILURE() << "unused suppression " << u.path << ":" << u.line
                  << " for '" << u.check << "'";
  }
  // Sanity: this really was a full-tree scan.
  EXPECT_GT(r.files_scanned, 100u);
}

TEST(PaxlintTree, JsonReportUsesTheSharedEnvelope) {
  const paxlint::LintResult& r = tree_result();
  std::ostringstream ss;
  paxlint::write_report_json(ss, PAXSIM_SOURCE_DIR, r);
  const std::string doc = ss.str();
  std::string error;
  paxsim::report::JsonValue parsed;
  EXPECT_TRUE(paxsim::report::parse_json_value(doc, &parsed, &error)) << error;
  EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"lint_report\""), std::string::npos);
  EXPECT_NE(doc.find("\"unsuppressed\":0"), std::string::npos);
}

}  // namespace
