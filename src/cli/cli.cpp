#include "cli/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>

#include "cli/flags.hpp"
#include "paxsim.hpp"
#include "sim/topology.hpp"

namespace paxsim::cli {
namespace {

bool parse_bench_list(const std::string& s, std::vector<npb::Benchmark>& out) {
  out.clear();
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    npb::Benchmark b;
    if (!npb::parse_benchmark(tok, b)) return false;
    out.push_back(b);
  }
  return !out.empty();
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(tok);
  return out;
}

/// `paxsim tune`'s axis lists.  Each spans the knob of one cell flag, whose
/// register_cell_flags row parses every value of the list.
struct TuneAxis {
  const char* cell;  ///< the cell flag, e.g. "sched"
  const char* axis;  ///< the list flag, e.g. "schedules"
  const char* hint;
  const char* help;
};
constexpr TuneAxis kTuneAxes[] = {
    {"sched", "schedules", "K1,K2,...",
     "schedule-override axis: default, static, dynamic, guided (unset: "
     "--sched)"},
    {"chunk", "chunks", "N1,N2,...",
     "chunk axis for overridden schedules, 0 = default (unset: --chunk)"},
    {"grain", "grains", "N1,N2,...", "iteration-grain axis (unset: --grain)"},
    {"scale", "scales", "F1,F2,...",
     "machine capacity-scale axis (unset: --scale)"},
};

/// The cell flags' rows, writing through to scratch options: the axis lists
/// parse each of their values with them.
struct CellRows {
  harness::RunOptions run;
  FlagSet flags;
  CellRows() { register_cell_flags(flags, &run); }
  CellRows(const CellRows&) = delete;
  CellRows& operator=(const CellRows&) = delete;
};

/// Registers @p a's list flag, filling @p out with the @p knob each value
/// sets through @p rows.
template <typename T>
void add_axis_flag(FlagSet& fs, const TuneAxis& a,
                   const std::shared_ptr<CellRows>& rows,
                   T harness::RunOptions::*knob, std::vector<T>* out) {
  FlagSpec s;
  s.name = a.axis;
  s.value_hint = a.hint;
  s.help = a.help;
  const std::string cell = std::string("--") + a.cell + "=";
  const std::string axis = a.axis;
  s.apply = [rows, cell, axis, knob, out](const std::string& v) -> std::string {
    std::vector<T> xs;
    std::string error;  // stays empty while every value parses
    for (const std::string& tok : split_csv(v)) {
      if (rows->flags.parse_flag(cell + tok, &error) !=
          FlagSet::Outcome::kOk) {
        break;
      }
      xs.push_back(rows->run.*knob);
    }
    if (!error.empty()) return "bad --" + axis + " '" + v + "': " + error;
    if (xs.empty()) return "bad --" + axis + " (need at least one value)";
    *out = std::move(xs);
    return {};
  };
  fs.add(std::move(s));
}

/// Registers `paxsim tune`'s own flags: the search knobs and axes,
/// written through to cmd->tune, and the report file.
void add_tune_flags(FlagSet& fs, Command* cmd) {
  tune::TuneOptions* t = &cmd->tune;
  register_tune_flags(fs, t);
  const auto rows = std::make_shared<CellRows>();
  add_axis_flag(fs, kTuneAxes[0], rows, &harness::RunOptions::sched_kind,
                &t->sched_kinds);
  add_axis_flag(fs, kTuneAxes[1], rows, &harness::RunOptions::sched_chunk,
                &t->chunks);
  add_axis_flag(fs, kTuneAxes[2], rows, &harness::RunOptions::grain,
                &t->grains);
  add_axis_flag(fs, kTuneAxes[3], rows, &harness::RunOptions::machine_scale,
                &t->scales);
  register_out_file_flag(fs, "out", &cmd->tune_out,
                         "also write the tuning_report JSON document to FILE");
}

/// Registers the flags @p cmd's command word reads, and only those, onto
/// @p cmd: its kind picks the table, and for `store` its positional action
/// does (`store get` names a cell; the other actions need only the store).
/// parse() and usage() both build their tables here, so a flag the word
/// would ignore is refused, and its help lists exactly what it accepts.
FlagSet make_flag_table(Command* cmd) {
  using Kind = Command::Kind;
  const Kind k = cmd->kind;
  const auto among = [k](std::initializer_list<Kind> kinds) {
    return std::find(kinds.begin(), kinds.end(), k) != kinds.end();
  };
  FlagSet fs;
  if (k == Kind::kHelp) return fs;
  if (k == Kind::kList) {
    register_machine_flag(fs, &cmd->options, &cmd->machine);
    return fs;
  }
  const bool store_get = k == Kind::kStore && cmd->store_action == "get";
  const bool names_cell = k != Kind::kServe && (k != Kind::kStore || store_get);
  if (names_cell) register_cell_flags(fs, &cmd->options, &cmd->machine);
  if (among({Kind::kRun, Kind::kPair, Kind::kSched, Kind::kTimeline})) {
    FlagSpec s;
    s.name = "check";
    s.value_hint = "off|race|invariants|full";
    s.def = "off";
    s.help = "attach the src/check analysis sink";
    Command* c = cmd;
    s.apply = [c](const std::string& v) -> std::string {
      if (!sim::parse_check_mode(v.c_str(), c->check)) {
        return "bad --check '" + v + "' (use off, race, invariants or full)";
      }
      return {};
    };
    fs.add(std::move(s));
  }
  // Of the words that run cells, only run (its cell plus the serial
  // baseline) and serve fan them out over workers, and sched, timeline and
  // trace never memoize theirs, so they take no --store.
  if (among({Kind::kRun, Kind::kServe})) register_jobs_flag(fs, &cmd->jobs);
  if (among({Kind::kRun, Kind::kPair, Kind::kPredict, Kind::kTune, Kind::kServe,
             Kind::kStore})) {
    register_store_flag(fs, &cmd->store_dir);
  }
  if (names_cell) {
    FlagSpec s;
    s.name = "bench";
    s.value_hint = "A[,B...]";
    s.help = "benchmark (run/predict/trace), pair (pair/sched) or list (tune)";
    Command* c = cmd;
    s.apply = [c](const std::string& v) -> std::string {
      if (!parse_bench_list(v, c->benches)) return "bad --bench '" + v + "'";
      return {};
    };
    fs.add(std::move(s));
  }
  if (names_cell && k != Kind::kTune) {
    fs.add_string("config", &cmd->config_name, "NAME",
                  "Table-1 configuration (see `paxsim list`)");
  }
  if (names_cell && !store_get) {
    fs.add_flag("csv", &cmd->csv, "machine-readable output (CSV or JSON)");
  }
  switch (k) {
    case Kind::kRun: {
      fs.add_flag("baseline", &cmd->baseline,
                  "also run and report the serial baseline");
      FlagSpec s;
      s.name = "profile";
      s.value_hint = "on|off";
      s.def = "off";
      s.help = "(Serial config) collect + print the paxmodel profile";
      s.bare_ok = true;
      Command* c = cmd;
      s.apply = [c](const std::string& v) -> std::string {
        if (v.empty() || v == "on") {
          c->profile = true;
        } else if (v == "off") {
          c->profile = false;
        } else {
          return "bad --profile '" + v + "' (use on or off)";
        }
        return {};
      };
      fs.add(std::move(s));
      break;
    }
    case Kind::kSched:
      fs.add_string("policy", &cmd->policy, "NAME",
                    "pinned-spread, naive-pack, random-migrating, ht-aware "
                    "or symbiotic");
      break;
    case Kind::kPredict:
      fs.add_flag("compare", &cmd->compare,
                  "also simulate the cell and print relative errors");
      break;
    case Kind::kTrace: {
      FlagSpec s;
      s.name = "trace";
      s.value_hint = "off|stacks|events|full";
      s.def = "off";
      s.help = "execution-trace recording depth";
      Command* c = cmd;
      s.apply = [c](const std::string& v) -> std::string {
        if (!sim::parse_trace_mode(v.c_str(), c->trace)) {
          return "bad --trace '" + v + "' (use off, stacks, events or full)";
        }
        return {};
      };
      fs.add(std::move(s));
      register_out_file_flag(fs, "trace-out", &cmd->trace_out,
                             "write a Chrome-tracing/Perfetto JSON timeline");
      fs.add_flag("regions", &cmd->regions, "print the per-region table");
      fs.add_flag("stacks", &cmd->stacks, "print the per-context table");
      break;
    }
    case Kind::kServe: {
      fs.add_string("jobs-file", &cmd->jobs_file, "FILE",
                    "the job file to expand");
      FlagSpec s;
      s.name = "max-cells";
      s.value_hint = "N";
      s.help = "stop after computing N cells";
      Command* c = cmd;
      s.apply = [c](const std::string& v) -> std::string {
        std::uint64_t x = 0;
        if (!parse_decimal(v, std::numeric_limits<std::uint64_t>::max(), &x) ||
            x == 0) {
          return "bad --max-cells (need an integer >= 1)";
        }
        c->max_cells = x;
        return {};
      };
      fs.add(std::move(s));
      fs.add_flag("quiet", &cmd->quiet, "suppress per-cell progress lines");
      break;
    }
    case Kind::kTune:
      add_tune_flags(fs, cmd);
      break;
    case Kind::kStore:
      if (store_get) {
        FlagSpec s;
        s.name = "mode";
        s.value_hint = "single|pair|predict";
        s.def = "single";
        s.help = "which cell kind the axis flags name";
        Command* c = cmd;
        s.apply = [c](const std::string& v) -> std::string {
          if (v != "single" && v != "pair" && v != "predict") {
            return "bad --mode '" + v + "' (use single, pair or predict)";
          }
          c->get_mode = v;
          return {};
        };
        fs.add(std::move(s));
      }
      break;
    default:
      break;
  }
  return fs;
}

std::unique_ptr<sched::Scheduler> make_policy(const std::string& name,
                                              std::uint64_t seed) {
  if (name == "pinned-spread") return sched::make_pinned_spread();
  if (name == "naive-pack") return sched::make_naive_pack();
  if (name == "random-migrating") return sched::make_random_migrating(0.5, seed);
  if (name == "ht-aware") return sched::make_ht_aware();
  if (name == "symbiotic") return sched::make_symbiotic();
  return nullptr;
}

void print_result(std::ostream& out, const std::string& label,
                  const harness::RunResult& r, bool csv) {
  if (csv) {
    out << label << ",wall_cycles," << r.wall_cycles << '\n';
    for (int m = 0; m < perf::kMetricCount; ++m) {
      out << label << ',' << perf::metric_name(m) << ','
          << perf::metric_value(r.metrics, m) << '\n';
    }
    return;
  }
  out << label << ": " << static_cast<std::uint64_t>(r.wall_cycles)
      << " cycles, verified=" << (r.verified ? "yes" : "no") << '\n';
  out << "  cpi=" << r.metrics.cpi
      << " stalled=" << r.metrics.stalled_fraction
      << " l1_miss=" << r.metrics.l1d_miss_rate
      << " l2_miss=" << r.metrics.l2_miss_rate
      << " bp_rate=" << r.metrics.branch_prediction_rate
      << " prefetch_share=" << r.metrics.prefetch_bus_fraction << '\n';
}

/// Prints the report of a checked run (one JSON line under --csv) and
/// returns the exit code it calls for: kExitFindings unless it is clean.
/// Unchecked runs print nothing and return 0.  A checked run attaches a
/// check::Checker to a machine of its own (at --check=off the checker is
/// inert and attaches nothing); it is not an engine cell, so the engine
/// neither memoizes nor stores it.
int report_check(std::ostream& out, const Command& cmd,
                 const check::CheckReport& report) {
  if (cmd.check == sim::CheckMode::kOff) return 0;
  if (cmd.csv) {
    harness::print_check_report_json(out, report);
  } else {
    harness::print_check_report(out, report);
  }
  return report.clean() ? 0 : kExitFindings;
}

int do_list(const Command& cmd, std::ostream& out) {
  out << "benchmarks:";
  for (const npb::Benchmark b : npb::kAllBenchmarks) {
    out << ' ' << npb::benchmark_name(b);
  }
  out << "\nclasses: S W A B\nconfigurations";
  if (cmd.options.topology != nullptr) {
    out << " (machine " << cmd.options.topology->name << ")";
  }
  out << ":\n";
  for (const auto& c : harness::configs_for(cmd.options.resolved_topology())) {
    out << "  \"" << c.name << "\"  (" << harness::architecture_name(c.arch)
        << ", " << c.threads << " thread" << (c.threads > 1 ? "s" : "")
        << ", " << c.chips << " chip" << (c.chips > 1 ? "s" : "") << ")\n";
  }
  out << "machine presets:";
  for (const std::string& p : sim::Topology::preset_names()) out << ' ' << p;
  out << " (or --machine=<file.json>)\n";
  out << "scheduler policies: pinned-spread naive-pack random-migrating "
         "ht-aware symbiotic\n";
  return 0;
}

/// Attaches the --store directory (when given) to a freshly built engine.
/// Detached (the default / --store=off), the engine is bit-identical to
/// the storeless path.
void attach_store(harness::ExperimentEngine& engine, const Command& cmd) {
  if (!cmd.store_dir.empty()) {
    engine.set_store(std::make_shared<serve::ResultStore>(cmd.store_dir));
  }
}

/// `paxsim store get`: print the stored entry for a digest, or for the cell
/// the axis flags describe (minted by CellKey::from, the same naming path
/// the engine writes through).
int do_store_get(const Command& cmd, std::ostream& out, std::ostream& err) {
  serve::ResultStore store(cmd.store_dir);
  std::string digest = cmd.store_digest;
  if (digest.empty()) {
    // parse() checked the bench count against --mode.
    auto kind = harness::CellKey::Kind::kSingle;
    if (cmd.get_mode == "pair") {
      kind = harness::CellKey::Kind::kPair;
    } else if (cmd.get_mode == "predict") {
      kind = harness::CellKey::Kind::kPredict;
    }
    digest = harness::cell_digest(harness::cell_fingerprint(
        harness::CellKey::from(kind, cmd.benches.front(), cmd.benches.back(),
                               cmd.config, cmd.options,
                               cmd.options.trial_seed(0))));
  }
  std::string payload;
  if (!store.read_object(digest, &payload)) {
    err << "error: no stored object " << digest << " in '" << cmd.store_dir
        << "'\n";
    return 1;
  }
  out << payload;
  if (payload.empty() || payload.back() != '\n') out << '\n';
  return 0;
}

/// The `paxsim store <stat|ls|gc|verify>` maintenance actions.  Output is
/// NDJSON (one schema_version'd document per line), feeding the same
/// tooling as the serve progress stream.
int do_store(const Command& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.store_action == "get") return do_store_get(cmd, out, err);
  serve::ResultStore store(cmd.store_dir);
  if (cmd.store_action == "stat") {
    const serve::StoreScan s = store.scan();
    report::Json j(out);
    j.begin_document("store_stat")
        .field("dir", store.dir())
        .field("entries", s.entries)
        .field("bytes", s.bytes)
        .field("quarantined", s.quarantined)
        .field("tmp_files", s.tmp_files);
    j.finish();
  } else if (cmd.store_action == "ls") {
    for (const serve::StoreEntry& e : store.list()) {
      report::Json j(out);
      j.begin_document("store_entry")
          .field("digest", e.digest)
          .field("payload", e.payload)
          .field("bytes", e.bytes)
          .field("fingerprint", e.fingerprint);
      j.finish();
    }
  } else if (cmd.store_action == "gc") {
    const serve::GcResult r = store.gc();
    report::Json j(out);
    j.begin_document("store_gc")
        .field("removed_tmp", r.removed_tmp)
        .field("removed_quarantined", r.removed_quarantined)
        .field("removed_unreachable", r.removed_unreachable);
    j.finish();
  } else {  // verify
    const serve::VerifyResult r = store.verify();
    report::Json j(out);
    j.begin_document("store_verify")
        .field("checked", r.checked)
        .field("ok", r.ok)
        .field("version_mismatch", r.version_mismatch)
        .field("corrupt", r.corrupt);
    j.finish();
    return r.checked == r.ok ? 0 : 1;
  }
  return 0;
}

/// docs/CALIBRATION.md measures the model's error bands on Paxville only,
/// so `predict` and `tune` say so on @p err on any other machine (their
/// stdout stays the same bytes).
void note_unmeasured_model(const Command& cmd, std::ostream& err) {
  const sim::Topology paxville = sim::Topology::paxville();
  sim::Topology machine = cmd.options.resolved_topology();
  machine.name = paxville.name;
  if (machine.fingerprint() == paxville.fingerprint()) return;
  err << "note: the model's error bands are unmeasured on machine '"
      << cmd.machine << "' (docs/CALIBRATION.md measures them on paxville "
      << "only)\n";
}

int do_tune(const Command& cmd, std::ostream& out, std::ostream& err) {
  note_unmeasured_model(cmd, err);
  harness::ExperimentEngine engine;
  attach_store(engine, cmd);
  std::vector<npb::Benchmark> benches = cmd.benches;
  if (benches.empty()) {
    benches.assign(std::begin(npb::kAllBenchmarks),
                   std::end(npb::kAllBenchmarks));
  }
  const tune::TuneReport rep =
      tune::tune(engine, benches, cmd.options, cmd.machine, cmd.tune);
  if (cmd.csv) {
    tune::write_tuning_report(out, rep);
  } else {
    out << "tuned " << rep.kernels.size() << " kernel"
        << (rep.kernels.size() == 1 ? "" : "s") << " on machine "
        << (rep.machine.empty() ? "default" : rep.machine) << " (class "
        << rep.problem_class << ", top-" << rep.top_k << " validation, seed "
        << rep.seed << ")\n";
    for (const tune::KernelResult& kr : rep.kernels) {
      out << "  " << npb::benchmark_name(kr.bench) << ": best "
          << kr.best.label << "\n    sim "
          << static_cast<std::uint64_t>(kr.best.sim_wall)
          << " cycles, speedup " << kr.best.sim_speedup << " ("
          << (kr.model_agrees ? "model agreed" : "model disagreed") << "; "
          << kr.sim_cells << " of " << kr.space_cells
          << " cells simulated)\n";
    }
    const auto& st = rep.stats;
    out << "engine: " << st.cache_misses << " cells simulated, "
        << st.cache_hits << " cache hits, " << st.store_hits
        << " store hits, " << st.store_writes << " store writes\n";
  }
  if (!cmd.tune_out.empty()) {
    std::ofstream f(cmd.tune_out);
    if (!f) {
      err << "error: cannot open '" << cmd.tune_out << "' for writing\n";
      return 1;
    }
    tune::write_tuning_report(f, rep);
    if (!cmd.csv) out << "wrote " << cmd.tune_out << '\n';
  }
  return 0;
}

/// The command words, in usage order.  `store` has two flag tables: one
/// for `store get`, one for its other actions.
struct Word {
  const char* name;
  Command::Kind kind;
};
constexpr Word kWords[] = {
    {"help", Command::Kind::kHelp},
    {"list", Command::Kind::kList},
    {"run", Command::Kind::kRun},
    {"pair", Command::Kind::kPair},
    {"sched", Command::Kind::kSched},
    {"timeline", Command::Kind::kTimeline},
    {"predict", Command::Kind::kPredict},
    {"trace", Command::Kind::kTrace},
    {"tune", Command::Kind::kTune},
    {"serve", Command::Kind::kServe},
    {"store", Command::Kind::kStore},
};

}  // namespace

std::string usage() {
  std::string text =
      "usage: paxsim <subcommand> [flags]\n"
      "  list                                      enumerate benchmarks/configs\n"
      "  run   --bench=CG --config=\"HT on -4-1\"    single-program run\n"
      "  pair  --bench=CG,FT --config=\"HT off -4-2\" co-scheduled pair\n"
      "  sched --bench=CG,FT --config=\"HT on -8-2\" --policy=symbiotic\n"
      "  timeline --bench=CG --config=\"HT on -8-2\"  per-step metric deltas\n"
      "  predict --bench=CG --config=\"HT on -8-2\"   analytical prediction from\n"
      "                                            one profiled serial run\n"
      "  trace --bench=CG --config=\"HT on -8-2\"     traced run: per-context and\n"
      "                                            per-region CPI stall stacks\n"
      "  tune  [--bench=CG,...] [--top-k=N]        model-driven autotuning:\n"
      "        [--machine=...] [--out=F]           rank every cell of the space\n"
      "                                            on the model, simulate the\n"
      "                                            top N\n"
      "  serve --jobs-file=plan.json [--store=DIR]  batch sweep service: expand\n"
      "        [--jobs=N] [--max-cells=N] [--quiet] the job file, answer stored\n"
      "                                            cells from the store, compute\n"
      "                                            + persist the rest (NDJSON)\n"
      "  store <stat|ls|gc|verify> --store=DIR     result-store maintenance\n"
      "  store get [<digest>] --store=DIR          print one stored entry, by\n"
      "                                            digest or by the cell axes\n"
      "                                            (--bench/--config/--mode...)\n"
      "each subcommand accepts only the flags listed for it below.\n";
  Command cell_owner;
  FlagSet cell;
  register_cell_flags(cell, &cell_owner.options);
  text += "cell flags (every subcommand that names a cell):\n" +
          cell.help_text(2);
  const auto section = [&](const std::string& title, Command c) {
    const FlagSet fs = make_flag_table(&c);
    const bool names_cell = fs.has("class");
    const std::string rows = fs.help_text(2, names_cell ? &cell : nullptr);
    text += title + (names_cell ? ": the cell flags and\n" : ":\n") +
            (rows.empty() ? "  (no flags)\n" : rows);
  };
  for (const Word& w : kWords) {
    Command c;
    c.kind = w.kind;
    if (w.kind != Command::Kind::kStore) {
      section(w.name, c);
      continue;
    }
    c.store_action = "stat";
    section("store stat|ls|gc|verify", c);
    c.store_action = "get";
    section("store get", c);
  }
  return text;
}

ParseResult parse(const std::vector<std::string>& args) {
  ParseResult res;
  if (args.empty()) {
    res.error = "missing subcommand";
    return res;
  }
  Command cmd;
  const std::string& sub = args[0];
  const Word* word =
      std::find_if(std::begin(kWords), std::end(kWords),
                   [&sub](const Word& w) { return sub == w.name; });
  if (word != std::end(kWords)) {
    cmd.kind = word->kind;
  } else if (sub == "--help" || sub == "-h") {
    cmd.kind = Command::Kind::kHelp;
  } else {
    res.error = "unknown subcommand '" + sub + "'";
    return res;
  }

  // `paxsim store` takes its action — and, for `get`, the digest — as
  // positional arguments; the action picks the flag table.  No other word
  // takes one.
  std::vector<std::string> flags;
  std::vector<std::string> positional;
  for (std::size_t i = 1; i < args.size(); ++i) {
    (args[i].rfind("--", 0) == 0 ? flags : positional).push_back(args[i]);
  }
  if (cmd.kind == Command::Kind::kStore && !positional.empty()) {
    cmd.store_action = positional[0];
    if (cmd.store_action == "get" && positional.size() > 1) {
      cmd.store_digest = positional[1];
    }
  }
  const std::size_t taken =
      cmd.kind != Command::Kind::kStore ? 0
      : cmd.store_action == "get"       ? 2
                                        : 1;
  if (positional.size() > taken) {
    res.error = "unexpected argument '" + positional[taken] + "'";
    return res;
  }
  const FlagSet fs = make_flag_table(&cmd);
  if (!fs.parse(flags, &res.error)) return res;

  // Per-subcommand requirements.
  const auto need = [&](bool cond, const char* msg) {
    if (!cond && res.error.empty()) res.error = msg;
  };
  switch (cmd.kind) {
    case Command::Kind::kRun:
    case Command::Kind::kTimeline:
      need(cmd.benches.size() == 1,
           "run/timeline need --bench=<one benchmark>");
      need(!cmd.config_name.empty(), "run/timeline need --config=<name>");
      if (cmd.kind == Command::Kind::kRun && cmd.profile) {
        // The profile comes from one serial run on a machine of its own,
        // with the profiler as its one sink: nothing else rides along.
        need(cmd.check == sim::CheckMode::kOff,
             "--profile and --check are mutually exclusive (one sink per "
             "machine)");
        need(!cmd.baseline,
             "--profile prints its own serial run; it takes no --baseline");
        need(cmd.store_dir.empty(),
             "--profile runs on a machine of its own; it takes no --store");
        need(cmd.jobs == 1,
             "--profile runs one cell; it takes no --jobs above 1");
      }
      break;
    case Command::Kind::kPredict:
      need(cmd.benches.size() == 1, "predict needs --bench=<one benchmark>");
      need(!cmd.config_name.empty(), "predict needs --config=<name>");
      break;
    case Command::Kind::kTrace:
      need(cmd.benches.size() == 1, "trace needs --bench=<one benchmark>");
      need(!cmd.config_name.empty(), "trace needs --config=<name>");
      break;
    case Command::Kind::kPair:
    case Command::Kind::kSched:
      need(cmd.benches.size() == 2, "pair/sched need --bench=<A,B>");
      need(!cmd.config_name.empty(), "pair/sched need --config=<name>");
      if (cmd.kind == Command::Kind::kSched &&
          make_policy(cmd.policy, 0) == nullptr) {
        res.error = "unknown --policy '" + cmd.policy + "'";
      }
      break;
    case Command::Kind::kServe:
      need(!cmd.jobs_file.empty(), "serve needs --jobs-file=<plan.json>");
      break;
    case Command::Kind::kTune: {
      // An axis list replaces the knob its cell flag sets, so giving both
      // would silently drop one of them.
      const auto given = [&flags](const std::string& name) {
        return std::any_of(flags.begin(), flags.end(),
                           [&name](const std::string& f) {
                             return f == "--" + name ||
                                    f.rfind("--" + name + "=", 0) == 0;
                           });
      };
      for (const TuneAxis& a : kTuneAxes) {
        if (res.error.empty() && given(a.cell) && given(a.axis)) {
          res.error = std::string("--") + a.cell + " and --" + a.axis +
                      " both set one axis of the search (give one of them)";
        }
      }
      break;
    }
    case Command::Kind::kStore:
      need(cmd.store_action == "stat" || cmd.store_action == "ls" ||
               cmd.store_action == "gc" || cmd.store_action == "verify" ||
               cmd.store_action == "get",
           "store needs an action: stat, ls, gc, verify or get");
      need(!cmd.store_dir.empty(), "store needs --store=<dir>");
      if (cmd.store_action == "get" && cmd.store_digest.empty()) {
        need(!cmd.benches.empty() && !cmd.config_name.empty(),
             "store get needs a <digest>, or --bench + --config naming the "
             "cell");
        // A pair names two programs, a single or a prediction one.
        if (cmd.get_mode == "pair") {
          need(cmd.benches.size() == 2,
               "store get --mode=pair needs --bench=<A,B>");
        } else {
          need(cmd.benches.size() == 1,
               "store get --mode=single|predict needs --bench=<one "
               "benchmark>");
        }
      }
      break;
    default:
      break;
  }
  if (!res.error.empty()) return res;
  if (!cmd.config_name.empty()) {
    const auto table = harness::configs_for(cmd.options.resolved_topology());
    const int i = harness::find_config_index(table, cmd.config_name);
    if (i < 0) {
      res.error = "unknown configuration '" + cmd.config_name +
                  "' (see `paxsim list" +
                  (cmd.machine.empty() ? "" : " --machine=" + cmd.machine) +
                  "`)";
      return res;
    }
    cmd.config = table[static_cast<std::size_t>(i)];
    if (cmd.kind == Command::Kind::kRun && cmd.profile &&
        !cmd.config.is_serial()) {
      res.error =
          "--profile=on requires --config=\"Serial\" (the profile is "
          "collected from a serial run)";
      return res;
    }
    // Two programs split the row's contexts between them.
    const bool two_programs =
        cmd.kind == Command::Kind::kPair || cmd.kind == Command::Kind::kSched ||
        (cmd.kind == Command::Kind::kStore && cmd.get_mode == "pair");
    if (two_programs && cmd.config.cpus.size() < 2) {
      res.error = "pair/sched need a configuration with at least two contexts";
      return res;
    }
  }
  res.command = std::move(cmd);
  return res;
}

int execute(const Command& cmd, std::ostream& out, std::ostream& err) {
  // The cell the flags name: parse() validated every axis and looked the
  // --config row up, so the engine takes them as they are.
  const harness::RunOptions& opt = cmd.options;
  const std::uint64_t seed = opt.trial_seed(0);
  try {
    switch (cmd.kind) {
      case Command::Kind::kHelp:
        out << usage();
        return 0;
      case Command::Kind::kList:
        return do_list(cmd, out);
      case Command::Kind::kTune:
        return do_tune(cmd, out, err);
      case Command::Kind::kServe: {
        serve::ServeOptions so;
        so.jobs_file = cmd.jobs_file;
        so.store_dir = cmd.store_dir;
        so.jobs = cmd.jobs;
        so.max_cells = cmd.max_cells;
        so.progress = !cmd.quiet;
        return serve::run_serve(so, out, err);
      }
      case Command::Kind::kStore:
        return do_store(cmd, out, err);
      case Command::Kind::kPredict: {
        note_unmeasured_model(cmd, err);
        const npb::Benchmark bench = cmd.benches[0];
        harness::ExperimentEngine engine;
        attach_store(engine, cmd);
        const auto pr = engine.predict(bench, cmd.config, opt, seed);
        const std::string label =
            std::string(npb::benchmark_name(bench)) + "@" + cmd.config_name;
        if (cmd.csv) {
          harness::print_prediction_json(
              out, std::string(npb::benchmark_name(bench)), cmd.config_name,
              pr.prediction);
        } else {
          harness::print_prediction(out, label, pr.prediction);
          out << "  profile: "
              << (pr.profile_reused ? "reused" : "collected") << " ("
              << pr.profile_host_sec << "s), model evaluation "
              << pr.predict_host_sec << "s\n";
        }
        if (cmd.compare) {
          const auto sim = engine.single(bench, cmd.config, opt, seed);
          const auto serial = engine.serial(bench, opt, seed);
          const double sim_speedup = serial.wall_cycles / sim.wall_cycles;
          const auto table = harness::prediction_error_table(
              pr.prediction, sim, sim_speedup);
          if (cmd.csv) {
            table.print_csv(out);
          } else {
            table.print(out, 4);
            out << "simulation host time: " << sim.host_sim_sec
                << "s; prediction is "
                << (pr.predict_host_sec > 0
                        ? sim.host_sim_sec / pr.predict_host_sec
                        : 0.0)
                << "x faster (model evaluation only)\n";
          }
        }
        return 0;
      }
      case Command::Kind::kRun: {
        const npb::Benchmark bench = cmd.benches[0];
        const std::string name(npb::benchmark_name(bench));
        if (cmd.profile) {
          sim::Machine machine(opt.machine_params());
          const auto prof =
              harness::run_profiled_serial(machine, bench, opt, seed);
          print_result(out, name + "@Serial", prof.result, cmd.csv);
          const auto& p = prof.profile;
          const double acc = static_cast<double>(p.loads + p.stores);
          out << "profile: " << p.loads << " loads, " << p.stores
              << " stores, " << p.uops << " uops, " << p.loops << " loops, "
              << p.iterations << " iterations, " << p.barriers
              << " barriers\n";
          out << "  distinct: " << p.distinct_lines << " lines, "
              << p.distinct_pages << " pages, " << p.distinct_blocks
              << " blocks\n";
          out << "  serial_uop_fraction=" << p.serial_uop_fraction()
              << " chained_load_fraction="
              << (p.loads > 0 ? static_cast<double>(p.chained_loads) /
                                    static_cast<double>(p.loads)
                              : 0.0)
              << " stream_fraction="
              << (p.stream_candidates > 0
                      ? static_cast<double>(p.streamed) /
                            static_cast<double>(p.stream_candidates)
                      : 0.0)
              << " runtime_access_share="
              << (acc > 0 ? static_cast<double>(p.runtime_accesses) / acc
                          : 0.0)
              << '\n';
          return 0;
        }
        // The cell and its serial baseline fan out over the --jobs workers.
        // The baseline is an engine cell; so is the cell unless it is
        // checked, and an unchecked Serial cell is its own baseline.
        const bool own_baseline =
            cmd.check == sim::CheckMode::kOff && cmd.config.is_serial();
        const std::size_t runs = cmd.baseline && !own_baseline ? 2 : 1;
        harness::ExperimentEngine engine(cmd.jobs);
        attach_store(engine, cmd);
        harness::RunResult r;
        harness::RunResult serial;
        check::CheckReport report;
        engine.for_each(runs, [&](std::size_t i) {
          if (i == 1) {
            serial = engine.serial(bench, opt, seed);
          } else if (cmd.check == sim::CheckMode::kOff) {
            r = engine.single(bench, cmd.config, opt, seed);
          } else {
            sim::Machine machine(opt.machine_params());
            check::Checker checker(machine, cmd.check);
            r = harness::run_single(machine, bench, cmd.config, opt, seed);
            report = checker.finish();
          }
        });
        if (own_baseline) serial = r;
        print_result(out, name + "@" + cmd.config_name, r, cmd.csv);
        if (cmd.baseline) {
          print_result(out, name + "@Serial", serial, cmd.csv);
          out << "speedup," << serial.wall_cycles / r.wall_cycles << '\n';
        }
        return report_check(out, cmd, report);
      }
      case Command::Kind::kPair: {
        harness::PairResult r;
        check::CheckReport report;
        if (cmd.check == sim::CheckMode::kOff) {
          harness::ExperimentEngine engine;
          attach_store(engine, cmd);
          r = engine.pair(cmd.benches[0], cmd.benches[1], cmd.config, opt,
                          seed);
        } else {
          sim::Machine machine(opt.machine_params());
          check::Checker checker(machine, cmd.check);
          r = harness::run_pair(machine, cmd.benches[0], cmd.benches[1],
                                cmd.config, opt, seed);
          report = checker.finish();
        }
        for (int p = 0; p < 2; ++p) {
          print_result(out,
                       std::string(npb::benchmark_name(cmd.benches[p])) +
                           "[" + std::to_string(p) + "]@" + cmd.config_name,
                       r.program[p], cmd.csv);
        }
        // One machine-wide checker covers both programs.
        return report_check(out, cmd, report);
      }
      case Command::Kind::kTimeline: {
        sim::Machine machine(opt.machine_params());
        check::Checker checker(machine, cmd.check);
        const auto tl = harness::run_timeline(machine, cmd.benches[0],
                                              cmd.config, opt, seed);
        if (opt.verify && !tl.run.verified) {
          err << "error: verification failed\n";
          return 1;
        }
        if (cmd.csv) {
          tl.timeline.print_csv(out);
        } else {
          for (std::size_t i = 0; i < tl.timeline.intervals(); ++i) {
            const perf::Metrics m = tl.timeline.metrics(i);
            out << "step " << i << ": cpi=" << m.cpi
                << " stalled=" << m.stalled_fraction
                << " l2_miss=" << m.l2_miss_rate
                << " prefetch_share=" << m.prefetch_bus_fraction << '\n';
          }
        }
        return report_check(out, cmd, checker.finish());
      }
      case Command::Kind::kTrace: {
        // The stack tables need only the accountant (--trace=off records
        // them); the Chrome export needs the event stream.
        sim::TraceMode depth = cmd.trace == sim::TraceMode::kOff
                                   ? sim::TraceMode::kStacks
                                   : cmd.trace;
        if (!cmd.trace_out.empty() && depth == sim::TraceMode::kStacks) {
          depth = sim::TraceMode::kFull;
        }
        sim::Machine machine(opt.machine_params());
        const auto tr = harness::run_traced(machine, cmd.benches[0],
                                            cmd.config, opt, depth, seed);
        const std::string bench_name(npb::benchmark_name(cmd.benches[0]));
        if (cmd.csv) {
          harness::print_trace_report_json(out, bench_name, cmd.config_name,
                                           tr.trace);
        } else {
          print_result(out, bench_name + "@" + cmd.config_name, tr.run,
                       false);
          // --stacks / --regions narrow the output; default prints both.
          const bool want_stacks = cmd.stacks || !cmd.regions;
          const bool want_regions = cmd.regions || !cmd.stacks;
          out << "trace: mode=" << sim::trace_mode_name(tr.trace.mode)
              << ", " << tr.trace.team_forks << " forks, "
              << tr.trace.loop_dispatches << " loop dispatches, "
              << tr.trace.barriers << " barriers, " << tr.trace.criticals
              << " critical sections, " << tr.trace.events_recorded
              << " events (" << tr.trace.events_dropped << " dropped)\n";
          if (want_stacks) harness::trace_context_table(tr.trace).print(out, 0);
          if (want_regions) harness::trace_region_table(tr.trace).print(out, 0);
        }
        if (!cmd.trace_out.empty()) {
          std::ofstream f(cmd.trace_out);
          if (!f) {
            err << "error: cannot open '" << cmd.trace_out
                << "' for writing\n";
            return 1;
          }
          trace::write_chrome_trace(f, tr.trace);
          if (!cmd.csv) {
            out << "wrote " << cmd.trace_out
                << " (chrome://tracing / Perfetto)\n";
          }
        }
        return 0;
      }
      case Command::Kind::kSched: {
        auto policy = make_policy(cmd.policy, seed);
        sim::Machine machine(opt.machine_params());
        check::Checker checker(machine, cmd.check);
        const auto r = harness::run_scheduled(machine, cmd.benches, cmd.config,
                                              *policy, opt, seed);
        for (std::size_t p = 0; p < r.program.size(); ++p) {
          print_result(out,
                       std::string(npb::benchmark_name(cmd.benches[p])) +
                           "[" + std::to_string(p) + "]@" + cmd.config_name +
                           "/" + r.scheduler,
                       r.program[p], cmd.csv);
        }
        out << "migrations," << r.migrations << '\n';
        return report_check(out, cmd, checker.finish());
      }
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
  return 1;
}

}  // namespace paxsim::cli
