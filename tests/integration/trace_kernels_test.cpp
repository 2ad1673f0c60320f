// Integration golden tests for paxtrace across the full kernel matrix:
//
//   * every active context's CPI stack sums bitwise-exactly to the run's
//     wall cycles, for all 8 kernels on Serial / HT off -4-2 / HT on -8-2,
//     under --trace=stacks and --trace=full;
//   * tracing never perturbs virtual time (traced wall == untraced
//     reference-path wall) at either depth;
//   * the Chrome tracing export is well-formed JSON, and names every tid
//     its events carry exactly once (on numa16 too).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "report/parse.hpp"
#include "trace/chrome.hpp"

namespace paxsim {
namespace {

const std::vector<const harness::StudyConfig*>& matrix_configs() {
  static const std::vector<const harness::StudyConfig*> v = [] {
    std::vector<const harness::StudyConfig*> configs;
    for (const char* name : {"Serial", "HT off -4-2", "HT on -8-2"}) {
      const harness::StudyConfig* cfg = harness::find_config(name);
      EXPECT_NE(cfg, nullptr) << name;
      configs.push_back(cfg);
    }
    return configs;
  }();
  return v;
}

harness::RunOptions small_options() {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.trials = 1;
  return opt;
}

/// The two recording depths: the accountant alone, and the accountant plus
/// per-context event recording.
constexpr sim::TraceMode kTraceModes[] = {sim::TraceMode::kStacks,
                                          sim::TraceMode::kFull};

TEST(TraceKernelsTest, StacksSumExactlyToWallAcrossMatrix) {
  const harness::RunOptions opt = small_options();
  for (const sim::TraceMode mode : kTraceModes) {
    const char* m = sim::trace_mode_name(mode);
    for (const harness::StudyConfig* cfg : matrix_configs()) {
      sim::Machine machine(opt.machine_params());
      for (const npb::Benchmark bench : npb::kAllBenchmarks) {
        const harness::TraceResult tr = harness::run_traced(
            machine, bench, *cfg, opt, mode, opt.trial_seed(0));
        const trace::TraceReport& t = tr.trace;
        ASSERT_GT(t.wall_cycles, 0.0)
            << m << ": " << npb::benchmark_name(bench) << " @ " << cfg->name;
        int active = 0;
        for (std::size_t i = 0; i < t.contexts.size(); ++i) {
          const trace::ContextStack& c = t.contexts[i];
          if (!c.active) continue;
          ++active;
          // Bitwise equality is the contract, not a tolerance.
          EXPECT_EQ(c.stack.sum(), t.wall_cycles)
              << m << ": " << npb::benchmark_name(bench) << " @ "
              << cfg->name << " cpu" << i;
        }
        EXPECT_EQ(active, cfg->threads)
            << m << ": " << npb::benchmark_name(bench) << " @ " << cfg->name;
      }
    }
  }
}

TEST(TraceKernelsTest, TracingDoesNotPerturbVirtualTime) {
  // The tracer forces the reference path, so the like-for-like untraced
  // baseline is a machine with the fast path disabled.
  const harness::RunOptions opt = small_options();
  sim::MachineParams ref_params = opt.machine_params();
  ref_params.fast_path = false;

  for (const sim::TraceMode mode : kTraceModes) {
    for (const harness::StudyConfig* cfg : matrix_configs()) {
      sim::Machine ref_machine(ref_params);
      sim::Machine traced_machine(opt.machine_params());
      for (const npb::Benchmark bench : npb::kAllBenchmarks) {
        const harness::RunResult ref = harness::run_single(
            ref_machine, bench, *cfg, opt, opt.trial_seed(0));
        const harness::TraceResult tr = harness::run_traced(
            traced_machine, bench, *cfg, opt, mode, opt.trial_seed(0));
        EXPECT_EQ(tr.run.wall_cycles, ref.wall_cycles)
            << sim::trace_mode_name(mode) << ": "
            << npb::benchmark_name(bench) << " @ " << cfg->name;
      }
    }
  }
}

/// Traces CG on @p cfg and checks the Chrome export: well-formed JSON that
/// names every tid its events carry exactly once.
void expect_chrome_export_well_formed(const harness::RunOptions& opt,
                                      const harness::StudyConfig& cfg) {
  sim::Machine machine(opt.machine_params());
  const harness::TraceResult tr =
      harness::run_traced(machine, npb::Benchmark::kCG, cfg, opt,
                          sim::TraceMode::kFull, opt.trial_seed(0));
  std::ostringstream os;
  trace::write_chrome_trace(os, tr.trace);
  std::string error;
  report::JsonValue parsed;
  ASSERT_TRUE(report::parse_json_value(os.str(), &parsed, &error))
      << cfg.name << ": " << error;
  const report::JsonValue* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr) << cfg.name;
  std::map<std::string, int> names;  // tid -> thread_name records
  std::set<std::string> used;        // tids the events carry
  for (const report::JsonValue& ev : events->items) {
    const report::JsonValue* tid = ev.find("tid");
    if (tid == nullptr) continue;  // the process_name record
    if (ev.string_or("ph", "") == "M") {
      ++names[tid->raw_number];
    } else {
      used.insert(tid->raw_number);
    }
  }
  EXPECT_EQ(used.size(), static_cast<std::size_t>(cfg.threads)) << cfg.name;
  for (const std::string& t : used) {
    EXPECT_EQ(names[t], 1) << cfg.name << ": tid " << t;
  }
}

TEST(TraceKernelsTest, ChromeExportIsWellFormedJson) {
  harness::RunOptions opt = small_options();
  for (const harness::StudyConfig* cfg : matrix_configs()) {
    expect_chrome_export_well_formed(opt, *cfg);
  }
  // numa16's widest row (HT off -16-4): 4 cores per chip, where a
  // Paxville-shaped numbering would give distinct contexts the same tid.
  opt.topology =
      std::make_shared<const sim::Topology>(sim::Topology::numa16());
  expect_chrome_export_well_formed(opt,
                                   harness::configs_for(*opt.topology).back());
}

TEST(TraceKernelsTest, ChromeExportValidForEmptyReport) {
  const trace::TraceReport empty;
  std::ostringstream os;
  trace::write_chrome_trace(os, empty);
  std::string error;
  report::JsonValue parsed;
  EXPECT_TRUE(report::parse_json_value(os.str(), &parsed, &error)) << error;
}

}  // namespace
}  // namespace paxsim
