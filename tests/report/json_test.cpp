// Tests for the unified report::Json writer plus schema golden checks:
// every machine-readable document paxsim emits (predict, check, trace)
// must be valid JSON carrying the {"schema_version", "kind"}
// envelope and its advertised top-level fields.
#include "report/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/report.hpp"
#include "report/parse.hpp"

namespace paxsim {
namespace {

using report::Json;

/// True iff @p text is one well-formed JSON value (the shared reader's
/// rules); @p error receives the reader's message.
bool parses(const std::string& text, std::string* error = nullptr) {
  report::JsonValue v;
  return report::parse_json_value(text, &v, error);
}

std::string doc(void (*build)(Json&)) {
  std::ostringstream os;
  Json j(os);
  build(j);
  return os.str();
}

TEST(JsonWriterTest, DocumentEnvelope) {
  const std::string text = doc([](Json& j) {
    j.begin_document("demo");
    j.finish();
  });
  EXPECT_EQ(text, "{\"schema_version\":1,\"kind\":\"demo\"}\n");
  EXPECT_TRUE(parses(text));
}

TEST(JsonWriterTest, EscapesStrings) {
  const std::string text = doc([](Json& j) {
    j.begin_document("demo");
    j.field("s", "a\"b\\c\nd\te");
    j.finish();
  });
  std::string error;
  EXPECT_TRUE(parses(text, &error)) << error;
  EXPECT_NE(text.find("a\\\"b\\\\c\\nd\\te"), std::string::npos) << text;
}

TEST(JsonWriterTest, NestedStructureAndAutoCommas) {
  std::ostringstream os;
  Json j(os);
  j.begin_document("demo");
  j.key("list").array().value(1).value(2).object();
  j.field("k", true);
  j.end().end();
  j.field("tail", 3);
  EXPECT_GT(j.depth(), 0u);
  j.finish();
  EXPECT_EQ(j.depth(), 0u);
  const std::string text = os.str();
  std::string error;
  EXPECT_TRUE(parses(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("\"list\":[1,2,{\"k\":true}],\"tail\":3"),
            std::string::npos)
      << text;
}

TEST(JsonWriterTest, NonFiniteNumbersRenderAsNull) {
  const std::string text = doc([](Json& j) {
    j.begin_document("demo");
    j.field("nan", std::numeric_limits<double>::quiet_NaN());
    j.field("inf", std::numeric_limits<double>::infinity());
    j.finish();
  });
  std::string error;
  EXPECT_TRUE(parses(text, &error)) << error;
  EXPECT_NE(text.find("\"nan\":null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"inf\":null"), std::string::npos) << text;
}

// ---- schema goldens: the documents the harness actually emits --------------

harness::ExperimentEngine& engine() {
  static harness::ExperimentEngine e;
  return e;
}

harness::RunOptions small_options() {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.trials = 1;
  return opt;
}

void expect_document(const std::string& text, const std::string& kind,
                     const std::vector<std::string>& keys) {
  std::string error;
  ASSERT_TRUE(parses(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("\"schema_version\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"kind\":\"" + kind + "\""), std::string::npos) << text;
  for (const std::string& k : keys) {
    EXPECT_NE(text.find("\"" + k + "\":"), std::string::npos)
        << kind << " document lacks key " << k;
  }
}

TEST(ReportSchemaTest, PredictDocument) {
  const harness::RunOptions opt = small_options();
  const harness::StudyConfig* cfg = harness::find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  const harness::PredictionResult p =
      engine().predict(npb::Benchmark::kCG, *cfg, opt, opt.trial_seed(0));
  std::ostringstream os;
  harness::print_prediction_json(os, "CG", std::string(cfg->name),
                                 p.prediction);
  expect_document(os.str(), "predict",
                  {"bench", "config", "wall_cycles", "speedup", "metrics"});
}

TEST(ReportSchemaTest, CheckDocument) {
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  check::Checker checker(machine, sim::CheckMode::kFull);
  (void)harness::run_single(machine, npb::Benchmark::kEP,
                            harness::serial_config(), opt, opt.trial_seed(0));
  std::ostringstream os;
  harness::print_check_report_json(os, checker.finish());
  expect_document(os.str(), "check",
                  {"mode", "clean", "races", "violations"});
}

TEST(ReportSchemaTest, TraceDocument) {
  const harness::RunOptions opt = small_options();
  const harness::StudyConfig* cfg = harness::find_config("HT on -4-1");
  ASSERT_NE(cfg, nullptr);
  sim::Machine machine(opt.machine_params());
  const harness::TraceResult tr =
      harness::run_traced(machine, npb::Benchmark::kCG, *cfg, opt,
                          sim::TraceMode::kStacks, opt.trial_seed(0));
  std::ostringstream os;
  harness::print_trace_report_json(os, "CG", std::string(cfg->name), tr.trace);
  expect_document(os.str(), "trace",
                  {"bench", "config", "wall_cycles", "contexts", "regions"});
}

}  // namespace
}  // namespace paxsim
