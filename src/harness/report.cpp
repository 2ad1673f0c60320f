#include "harness/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>

#include "perf/metrics.hpp"
#include "report/json.hpp"
#include "trace/stack.hpp"

namespace paxsim::harness {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::add_row(std::string label, std::vector<double> values) {
  rows_.push_back(Row{std::move(label), std::move(values)});
}

void Table::print(std::ostream& os, int precision) const {
  std::size_t label_w = 12;
  for (const Row& r : rows_) label_w = std::max(label_w, r.label.size() + 2);
  std::size_t col_w = 10;
  for (const std::string& c : columns_) col_w = std::max(col_w, c.size() + 2);

  os << "== " << title_ << " ==\n";
  os << std::left << std::setw(static_cast<int>(label_w)) << "";
  for (const std::string& c : columns_) {
    os << std::right << std::setw(static_cast<int>(col_w)) << c;
  }
  os << '\n';
  for (const Row& r : rows_) {
    os << std::left << std::setw(static_cast<int>(label_w)) << r.label;
    for (const double v : r.values) {
      os << std::right << std::setw(static_cast<int>(col_w)) << std::fixed
         << std::setprecision(precision) << v;
    }
    os << '\n';
  }
  os.unsetf(std::ios::fixed);
  os << '\n';
}

void Table::print_csv(std::ostream& os) const {
  for (const Row& r : rows_) {
    for (std::size_t c = 0; c < r.values.size() && c < columns_.size(); ++c) {
      os << title_ << ',' << r.label << ',' << columns_[c] << ','
         << r.values[c] << '\n';
    }
  }
}

void print_box_line(std::ostream& os, const std::string& label,
                    const BoxStats& box, double lo, double hi, int width) {
  auto pos = [&](double v) {
    if (hi <= lo) return 0;
    const double f = (v - lo) / (hi - lo);
    return static_cast<int>(std::clamp(f, 0.0, 1.0) * (width - 1));
  };
  std::string line(static_cast<std::size_t>(width), ' ');
  const int pmin = pos(box.min), p1 = pos(box.q1), pm = pos(box.median),
            p3 = pos(box.q3), pmax = pos(box.max);
  for (int i = pmin; i <= pmax; ++i) line[static_cast<std::size_t>(i)] = '-';
  for (int i = p1; i <= p3; ++i) line[static_cast<std::size_t>(i)] = '=';
  line[static_cast<std::size_t>(pmin)] = '|';
  line[static_cast<std::size_t>(pmax)] = '|';
  line[static_cast<std::size_t>(p1)] = '[';
  line[static_cast<std::size_t>(p3)] = ']';
  line[static_cast<std::size_t>(pm)] = '#';
  os << std::left << std::setw(14) << label << line << "  med="
     << std::fixed << std::setprecision(2) << box.median << " iqr=["
     << box.q1 << "," << box.q3 << "] range=[" << box.min << "," << box.max
     << "] n=" << box.n << '\n';
  os.unsetf(std::ios::fixed);
}

namespace {

void print_access(std::ostream& os, const char* role,
                  const check::AccessRecord& a) {
  os << "      " << role << ": thread " << a.tid << " on cpu " << a.slot
     << " (chip " << int{a.cpu.chip} << " core " << int{a.cpu.core}
     << " ctx " << int{a.cpu.context} << "), block " << a.block << ", t="
     << std::fixed << std::setprecision(0) << a.vtime << '\n';
  os.unsetf(std::ios::fixed);
}

void json_access(report::Json& j, const check::AccessRecord& a) {
  j.object()
      .field("tid", a.tid)
      .field("cpu", a.slot)
      .field("block", static_cast<std::uint64_t>(a.block))
      .field("vtime", a.vtime)
      .end();
}

void json_cpi_stack(report::Json& j, const trace::CpiStack& s) {
  j.object();
  for (std::size_t c = 0; c < trace::kStackCatCount; ++c) {
    j.field(trace::stack_cat_name(static_cast<trace::StackCat>(c)),
            s.cycles[c]);
  }
  j.end();
}

}  // namespace

void print_check_report(std::ostream& os, const check::CheckReport& r) {
  os << "== check report (mode=" << sim::check_mode_name(r.mode) << ") ==\n";
  os << "  events: " << r.accesses << " accesses, " << r.fetches
     << " fetches, " << r.syncs << " syncs, " << r.team_events
     << " team events, " << r.audits << " audits\n";
  os << "  result: " << (r.clean() ? "CLEAN" : "FINDINGS") << " ("
     << r.races_total << " race observations on " << r.racy_words
     << " words, " << r.violations_total << " invariant violations)\n";
  if (!r.races.empty()) {
    os << "  races (first per word and kind, " << r.races.size()
       << " retained):\n";
    for (const check::RaceRecord& rec : r.races) {
      os << "    " << check::race_kind_name(rec.kind) << " on word 0x"
         << std::hex << rec.addr << std::dec << '\n';
      print_access(os, "prior  ", rec.prior);
      print_access(os, "current", rec.current);
    }
  }
  if (!r.violations.empty()) {
    os << "  invariant violations (" << r.violations.size() << " retained):\n";
    for (const check::Violation& v : r.violations) {
      os << "    [" << v.rule << "] " << v.detail << '\n';
    }
  }
  os << "  false sharing: " << r.line_conflicts
     << " line conflicts across " << r.conflicted_lines << " lines\n\n";
}

void print_check_report_json(std::ostream& os, const check::CheckReport& r) {
  report::Json j(os);
  j.begin_document("check")
      .field("mode", sim::check_mode_name(r.mode))
      .field("clean", r.clean())
      .field("accesses", r.accesses)
      .field("fetches", r.fetches)
      .field("syncs", r.syncs)
      .field("team_events", r.team_events)
      .field("audits", r.audits)
      .field("races_total", r.races_total)
      .field("racy_words", r.racy_words)
      .field("violations_total", r.violations_total)
      .field("line_conflicts", r.line_conflicts)
      .field("conflicted_lines", r.conflicted_lines);
  j.key("races").array();
  for (const check::RaceRecord& rec : r.races) {
    j.object()
        .field("kind", check::race_kind_name(rec.kind))
        .field("addr", rec.addr);
    j.key("prior");
    json_access(j, rec.prior);
    j.key("current");
    json_access(j, rec.current);
    j.end();
  }
  j.end();
  j.key("violations").array();
  for (const check::Violation& v : r.violations) {
    j.object().field("rule", v.rule).field("detail", v.detail).end();
  }
  j.end();
  j.finish();
}

void print_prediction(std::ostream& os, const std::string& label,
                      const model::Prediction& p) {
  os << label << ": " << static_cast<std::uint64_t>(p.wall_cycles)
     << " cycles (predicted), speedup=" << p.speedup << '\n';
  os << "  cpi=" << p.metrics.cpi
     << " stalled=" << p.metrics.stalled_fraction
     << " l1_miss=" << p.metrics.l1d_miss_rate
     << " l2_miss=" << p.metrics.l2_miss_rate
     << " bp_rate=" << p.metrics.branch_prediction_rate
     << " prefetch_share=" << p.metrics.prefetch_bus_fraction << '\n';
}

void print_prediction_json(std::ostream& os, const std::string& bench,
                           const std::string& config,
                           const model::Prediction& p) {
  report::Json j(os);
  j.begin_document("predict")
      .field("bench", bench)
      .field("config", config)
      .field("wall_cycles", p.wall_cycles)
      .field("serial_wall_cycles", p.serial_wall_cycles)
      .field("speedup", p.speedup)
      .field("cycles", p.cycles)
      .field("instructions", p.instructions);
  j.key("metrics").object();
  for (int m = 0; m < perf::kMetricCount; ++m) {
    j.field(perf::metric_name(m), perf::metric_value(p.metrics, m));
  }
  j.end();
  j.field("l1d_misses", p.l1d_misses)
      .field("l2_misses", p.l2_misses)
      .field("tc_misses", p.tc_misses)
      .field("dtlb_misses", p.dtlb_misses)
      .field("bus_reads", p.bus_reads)
      .field("bus_writes", p.bus_writes)
      .field("bus_prefetches", p.bus_prefetches)
      .field("coherence_transfers", p.coherence_transfers)
      .field("mc_utilization", p.mc_utilization);
  j.finish();
}

Table prediction_error_table(const model::Prediction& p, const RunResult& sim,
                             double sim_speedup) {
  Table t("prediction vs simulation",
          {"predicted", "simulated", "rel_error"});
  const auto rel = [](double pred, double measured) {
    return measured != 0 ? (pred - measured) / measured : 0.0;
  };
  const auto row = [&](const std::string& name, double pred, double measured) {
    t.add_row(name, {pred, measured, rel(pred, measured)});
  };
  row("wall_cycles", p.wall_cycles, sim.wall_cycles);
  row("speedup", p.speedup, sim_speedup);
  for (int m = 0; m < perf::kMetricCount; ++m) {
    row(std::string(perf::metric_name(m)), perf::metric_value(p.metrics, m),
        perf::metric_value(sim.metrics, m));
  }
  return t;
}

void print_run_json(std::ostream& os, const std::string& bench,
                    const std::string& config, const RunResult& r) {
  report::Json j(os);
  j.begin_document("run")
      .field("bench", bench)
      .field("config", config)
      .field("wall_cycles", r.wall_cycles)
      .field("verified", r.verified);
  j.key("metrics").object();
  for (int m = 0; m < perf::kMetricCount; ++m) {
    j.field(perf::metric_name(m), perf::metric_value(r.metrics, m));
  }
  j.end();
  j.key("counters").object();
  for (std::size_t e = 0; e < perf::kEventCount; ++e) {
    const auto ev = static_cast<perf::Event>(e);
    j.field(perf::event_name(ev), r.counters.get(ev));
  }
  j.end();
  j.finish();
}

namespace {

std::vector<std::string> stack_columns(std::vector<std::string> head) {
  for (std::size_t c = 0; c < trace::kStackCatCount; ++c) {
    head.emplace_back(trace::stack_cat_name(static_cast<trace::StackCat>(c)));
  }
  return head;
}

void append_stack(std::vector<double>& row, const trace::CpiStack& s) {
  for (std::size_t c = 0; c < trace::kStackCatCount; ++c) {
    row.push_back(s.cycles[c]);
  }
}

std::string region_label(const trace::RegionStats& r) {
  return r.body == 0 ? std::string("serial")
                     : "body " + std::to_string(r.body);
}

}  // namespace

Table trace_context_table(const trace::TraceReport& t) {
  Table tab("per-context CPI stack (cycles)", stack_columns({"wall"}));
  // Rows are labelled by the dense context slot (the list is in slot order).
  for (std::size_t i = 0; i < t.contexts.size(); ++i) {
    const trace::ContextStack& c = t.contexts[i];
    if (!c.active) continue;
    std::vector<double> row = {c.stack.sum()};
    append_stack(row, c.stack);
    tab.add_row("cpu" + std::to_string(i), std::move(row));
  }
  return tab;
}

Table trace_region_table(const trace::TraceReport& t) {
  Table tab("per-region CPI stack (cycles)",
            stack_columns({"instances", "iterations", "accesses"}));
  for (const trace::RegionStats& r : t.regions) {
    std::vector<double> row = {static_cast<double>(r.instances),
                               static_cast<double>(r.iterations),
                               static_cast<double>(r.accesses)};
    append_stack(row, r.stack);
    tab.add_row(region_label(r), std::move(row));
  }
  return tab;
}

void print_trace_report_json(std::ostream& os, const std::string& bench,
                             const std::string& config,
                             const trace::TraceReport& t) {
  report::Json j(os);
  j.begin_document("trace")
      .field("bench", bench)
      .field("config", config)
      .field("mode", sim::trace_mode_name(t.mode))
      .field("wall_cycles", t.wall_cycles)
      .field("team_forks", t.team_forks)
      .field("loop_dispatches", t.loop_dispatches)
      .field("barriers", t.barriers)
      .field("criticals", t.criticals)
      .field("events_recorded", t.events_recorded)
      .field("events_dropped", t.events_dropped);
  j.key("contexts").array();
  for (std::size_t i = 0; i < t.contexts.size(); ++i) {
    const trace::ContextStack& c = t.contexts[i];
    j.object()
        .field("cpu", static_cast<int>(i))  // dense slot
        .field("active", c.active)
        .field("wall_cycles", c.stack.sum())
        .field("executed", c.executed);
    j.key("stack");
    json_cpi_stack(j, c.stack);
    j.end();
  }
  j.end();
  j.key("regions").array();
  for (const trace::RegionStats& r : t.regions) {
    j.object()
        .field("body", static_cast<std::uint64_t>(r.body))
        .field("instances", r.instances)
        .field("iterations", r.iterations)
        .field("accesses", r.accesses)
        .field("l1_misses", r.l1_misses)
        .field("l2_misses", r.l2_misses)
        .field("fetches", r.fetches);
    j.key("stack");
    json_cpi_stack(j, r.stack);
    j.end();
  }
  j.end();
  j.finish();
}

}  // namespace paxsim::harness
