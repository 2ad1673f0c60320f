// paxsim/harness/report.hpp
//
// Plain-text emitters for the paper's artifacts: fixed-width tables (one per
// metric panel of Figures 2 and 4, plus Tables 1-2) and an ASCII
// box-and-whiskers rendering of Figure 5.  Every emitter can also append
// CSV rows so results are machine-readable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "check/report.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "model/predict.hpp"
#include "trace/report.hpp"

namespace paxsim::harness {

/// A simple fixed-width table: column headers plus labelled numeric rows.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  /// Appends a labelled row; @p values must match the column count.
  void add_row(std::string label, std::vector<double> values);

  /// Renders with aligned columns; values printed with @p precision digits.
  void print(std::ostream& os, int precision = 3) const;

  /// Emits "title,label,col,value" CSV lines.
  void print_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  struct Row {
    std::string label;
    std::vector<double> values;
  };
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

/// Renders one box-and-whiskers line:  min |--[ q1 | median | q3 ]--| max,
/// scaled into [lo, hi] over @p width characters.
void print_box_line(std::ostream& os, const std::string& label,
                    const BoxStats& box, double lo, double hi, int width = 60);

/// Renders the analysis findings of a checked run (--check=...): event
/// totals, each retained race with its two conflicting accesses, each
/// invariant violation, and the false-sharing statistics.
void print_check_report(std::ostream& os, const check::CheckReport& r);

/// One JSON object (single line) with the same content, machine-readable —
/// the check-mode counterpart of print_csv.
void print_check_report_json(std::ostream& os, const check::CheckReport& r);

/// Renders an analytical prediction in the same schema the run emitters use
/// for a simulated result (wall cycles + the Figure-2 metric bundle), so
/// `--predict` output lines up column-for-column with `run` output.
void print_prediction(std::ostream& os, const std::string& label,
                      const model::Prediction& p);

/// One JSON object (single line) with the prediction's metrics and backing
/// event counts — the predict-mode counterpart of print_check_report_json.
void print_prediction_json(std::ostream& os, const std::string& bench,
                           const std::string& config,
                           const model::Prediction& p);

/// Per-metric predicted/simulated/relative-error table for a configuration
/// where both tiers ran (`predict --compare`).  @p sim_speedup is the
/// simulated serial wall over @p sim's wall.
[[nodiscard]] Table prediction_error_table(const model::Prediction& p,
                                           const RunResult& sim,
                                           double sim_speedup);

/// One JSON document (single line), kind "run": wall time, verification,
/// the Figure-2 metric bundle and every PMU counter of a simulated run.
void print_run_json(std::ostream& os, const std::string& bench,
                    const std::string& config, const RunResult& r);

/// Per-context CPI stack table: one row per active hardware context with
/// the cycle count of every stack category plus the stack sum (== wall).
[[nodiscard]] Table trace_context_table(const trace::TraceReport& t);

/// Per-region CPI stack table: one row per parallel-loop body (plus the
/// serial bucket) with dispatch counts and the attributed cycle split.
[[nodiscard]] Table trace_region_table(const trace::TraceReport& t);

/// One JSON document (single line), kind "trace": tallies, per-context
/// stacks and per-region stacks (events go through the Chrome exporter).
void print_trace_report_json(std::ostream& os, const std::string& bench,
                             const std::string& config,
                             const trace::TraceReport& t);

}  // namespace paxsim::harness
