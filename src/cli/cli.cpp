#include "cli/cli.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
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

/// Registers every `paxsim` flag onto @p cmd.  One table serves all
/// subcommands (as the hand-rolled parser did) and usage() renders its help
/// from the same rows.
FlagSet make_flag_table(Command* cmd) {
  FlagSet fs;
  register_run_flags(fs, &cmd->options, &cmd->machine);
  {
    FlagSpec s;
    s.name = "check";
    s.value_hint = "off|race|invariants|full";
    s.def = "off";
    s.help = "attach the src/check analysis sink";
    harness::RunOptions* r = &cmd->options;
    s.apply = [r](const std::string& v) -> std::string {
      if (!sim::parse_check_mode(v.c_str(), r->check_mode)) {
        return "bad --check '" + v + "' (use off, race, invariants or full)";
      }
      return {};
    };
    fs.add(std::move(s));
  }
  {
    FlagSpec s;
    s.name = "trace";
    s.value_hint = "off|stacks|events|full";
    s.def = "off";
    s.help = "execution-trace recording depth";
    harness::RunOptions* r = &cmd->options;
    s.apply = [r](const std::string& v) -> std::string {
      if (!sim::parse_trace_mode(v.c_str(), r->trace_mode)) {
        return "bad --trace '" + v + "' (use off, stacks, events or full)";
      }
      return {};
    };
    fs.add(std::move(s));
  }
  register_engine_flags(fs, &cmd->jobs, &cmd->store_dir);
  {
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
  fs.add_string("config", &cmd->config_name, "NAME",
                "Table-1 configuration (see `paxsim list`)");
  fs.add_string("policy", &cmd->policy, "NAME",
                "sched: pinned-spread, naive-pack, random-migrating, "
                "ht-aware or symbiotic");
  fs.add_flag("csv", &cmd->csv, "machine-readable output (CSV or JSON)");
  fs.add_flag("baseline", &cmd->baseline,
              "run: also run and report the serial baseline");
  fs.add_flag("compare", &cmd->compare,
              "predict: also simulate the cell and print relative errors");
  {
    FlagSpec s;
    s.name = "profile";
    s.value_hint = "on|off";
    s.def = "off";
    s.help = "run (Serial config): collect + print the paxmodel profile";
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
  }
  fs.add_string("trace-out", &cmd->trace_out, "FILE",
                "trace: write a Chrome-tracing/Perfetto JSON timeline");
  fs.add_flag("regions", &cmd->regions, "trace: print the per-region table");
  fs.add_flag("stacks", &cmd->stacks, "trace: print the per-context table");
  fs.add_string("jobs-file", &cmd->jobs_file, "FILE",
                "serve: the job file to expand");
  {
    FlagSpec s;
    s.name = "max-cells";
    s.value_hint = "N";
    s.help = "serve: stop after computing N cells";
    Command* c = cmd;
    s.apply = [c](const std::string& v) -> std::string {
      char* end = nullptr;
      const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || end == nullptr || *end != '\0' || x == 0) {
        return "bad --max-cells (need an integer >= 1)";
      }
      c->max_cells = x;
      return {};
    };
    fs.add(std::move(s));
  }
  fs.add_flag("quiet", &cmd->quiet, "serve: suppress per-cell progress lines");
  {
    FlagSpec s;
    s.name = "strategy";
    s.value_hint = "grid|greedy|anneal";
    s.def = "greedy";
    s.help = "tune: search strategy over the configuration space";
    Command* c = cmd;
    s.apply = [c](const std::string& v) -> std::string {
      if (v != "grid" && v != "greedy" && v != "anneal") {
        return "bad --strategy '" + v + "' (use grid, greedy or anneal)";
      }
      c->strategy = v;
      return {};
    };
    fs.add(std::move(s));
  }
  fs.add_int("top-k", &cmd->top_k, 1, "N",
             "tune: simulator validations per kernel (grid validates all)");
  fs.add_int("budget", &cmd->anneal_budget, 1, "N",
             "tune: proposal steps for --strategy=anneal");
  {
    FlagSpec s;
    s.name = "schedules";
    s.value_hint = "K1,K2,...";
    s.help = "tune: schedule-override axis (default, static, dynamic, guided)";
    Command* c = cmd;
    s.apply = [c](const std::string& v) -> std::string {
      std::vector<int> kinds;
      for (const std::string& tok : split_csv(v)) {
        int k = -1;
        if (!harness::parse_sched_name(tok, &k)) {
          return "bad --schedules '" + v +
                 "' (use default, static, dynamic or guided)";
        }
        kinds.push_back(k);
      }
      if (kinds.empty()) return "bad --schedules (need at least one kind)";
      c->sched_kinds = std::move(kinds);
      return {};
    };
    fs.add(std::move(s));
  }
  {
    FlagSpec s;
    s.name = "chunks";
    s.value_hint = "N1,N2,...";
    s.help = "tune: chunk axis for overridden schedules (0 = default)";
    Command* c = cmd;
    s.apply = [c](const std::string& v) -> std::string {
      std::vector<std::size_t> xs;
      for (const std::string& tok : split_csv(v)) {
        char* end = nullptr;
        const unsigned long long x = std::strtoull(tok.c_str(), &end, 10);
        if (tok.empty() || end == nullptr || *end != '\0') {
          return "bad --chunks '" + v + "' (need comma-separated integers)";
        }
        xs.push_back(static_cast<std::size_t>(x));
      }
      if (xs.empty()) return "bad --chunks (need at least one value)";
      c->chunks = std::move(xs);
      return {};
    };
    fs.add(std::move(s));
  }
  {
    FlagSpec s;
    s.name = "grains";
    s.value_hint = "N1,N2,...";
    s.help = "tune: iteration-grain axis";
    Command* c = cmd;
    s.apply = [c](const std::string& v) -> std::string {
      std::vector<std::size_t> xs;
      for (const std::string& tok : split_csv(v)) {
        char* end = nullptr;
        const unsigned long long x = std::strtoull(tok.c_str(), &end, 10);
        if (tok.empty() || end == nullptr || *end != '\0' || x < 1) {
          return "bad --grains '" + v +
                 "' (need comma-separated integers >= 1)";
        }
        xs.push_back(static_cast<std::size_t>(x));
      }
      if (xs.empty()) return "bad --grains (need at least one value)";
      c->grains = std::move(xs);
      return {};
    };
    fs.add(std::move(s));
  }
  {
    FlagSpec s;
    s.name = "scales";
    s.value_hint = "F1,F2,...";
    s.help = "tune: machine capacity-scale axis";
    Command* c = cmd;
    s.apply = [c](const std::string& v) -> std::string {
      std::vector<double> xs;
      for (const std::string& tok : split_csv(v)) {
        char* end = nullptr;
        const double x = std::strtod(tok.c_str(), &end);
        if (tok.empty() || end == nullptr || *end != '\0' ||
            !std::isfinite(x) || x < 1.0) {
          return "bad --scales '" + v +
                 "' (need comma-separated finite numbers >= 1)";
        }
        xs.push_back(x);
      }
      if (xs.empty()) return "bad --scales (need at least one value)";
      c->scales = std::move(xs);
      return {};
    };
    fs.add(std::move(s));
  }
  fs.add_string("out", &cmd->tune_out, "FILE",
                "tune: also write the tuning_report JSON document to FILE");
  {
    FlagSpec s;
    s.name = "mode";
    s.value_hint = "single|pair|predict";
    s.def = "single";
    s.help = "store get: which cell kind the axis flags name";
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
/// Unchecked runs print nothing and return 0.
int report_check(std::ostream& out, const harness::RunOptions& opt,
                 const check::CheckReport& report, bool csv) {
  if (opt.check_mode == sim::CheckMode::kOff) return 0;
  if (csv) {
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
  out << "tune strategies: grid greedy anneal\n";
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
        .field("removed_quarantined", r.removed_quarantined);
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

int do_tune(const Command& cmd, std::ostream& out, std::ostream& err) {
  harness::ExperimentEngine engine(cmd.jobs);
  attach_store(engine, cmd);
  std::vector<npb::Benchmark> benches = cmd.benches;
  if (benches.empty()) {
    benches.assign(std::begin(npb::kAllBenchmarks),
                   std::end(npb::kAllBenchmarks));
  }
  tune::TuneOptions topt;
  topt.strategy = cmd.strategy;
  topt.top_k = cmd.top_k;
  topt.anneal_budget = cmd.anneal_budget;
  if (!cmd.sched_kinds.empty()) topt.sched_kinds = cmd.sched_kinds;
  topt.chunks = cmd.chunks.empty() ? std::vector<std::size_t>{0} : cmd.chunks;
  topt.grains = cmd.grains.empty()
                    ? std::vector<std::size_t>{cmd.options.grain}
                    : cmd.grains;
  topt.scales = cmd.scales.empty()
                    ? std::vector<double>{cmd.options.machine_scale}
                    : cmd.scales;
  const tune::TuneReport rep =
      tune::tune(engine, benches, cmd.options, cmd.machine, topt);
  if (cmd.csv) {
    tune::write_tuning_report(out, rep);
  } else {
    out << "tuned " << rep.kernels.size() << " kernel"
        << (rep.kernels.size() == 1 ? "" : "s") << " on machine "
        << (rep.machine.empty() ? "default" : rep.machine) << " (class "
        << rep.problem_class << ", strategy " << rep.strategy << ", "
        << (rep.strategy == "grid" ? std::string("exhaustive validation")
                                   : "top-" + std::to_string(rep.top_k) +
                                         " validation")
        << ", seed " << rep.seed << ")\n";
    for (const tune::KernelResult& kr : rep.kernels) {
      out << "  " << npb::benchmark_name(kr.bench) << ": best "
          << kr.best.label << "\n    sim "
          << static_cast<std::uint64_t>(kr.best.sim_wall)
          << " cycles, speedup " << kr.best.sim_speedup << " ("
          << (kr.model_agrees ? "model agreed" : "model disagreed") << "; "
          << kr.model_cells << " model cells, " << kr.sim_cells
          << " simulated, space " << kr.space_cells << ")\n";
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

}  // namespace

std::string usage() {
  Command dummy;
  const FlagSet fs = make_flag_table(&dummy);
  return
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
      "  tune  [--bench=CG,...] [--strategy=greedy] model-driven autotuning:\n"
      "        [--machine=...] [--top-k=N] [--out=F] search the configuration\n"
      "                                            space on the model, validate\n"
      "                                            the frontier on the simulator\n"
      "  serve --jobs-file=plan.json [--store=DIR]  batch sweep service: expand\n"
      "        [--jobs=N] [--max-cells=N] [--quiet] the job file, answer stored\n"
      "                                            cells from the store, compute\n"
      "                                            + persist the rest (NDJSON)\n"
      "  store <stat|ls|gc|verify> --store=DIR     result-store maintenance\n"
      "  store get [<digest>] --store=DIR          print one stored entry, by\n"
      "                                            digest or by the cell axes\n"
      "                                            (--bench/--config/--mode...)\n"
      "flags (every subcommand accepts the full table):\n" +
      fs.help_text(2);
}

ParseResult parse(const std::vector<std::string>& args) {
  ParseResult res;
  if (args.empty()) {
    res.error = "missing subcommand";
    return res;
  }
  Command cmd;
  const std::string& sub = args[0];
  if (sub == "list") {
    cmd.kind = Command::Kind::kList;
  } else if (sub == "run") {
    cmd.kind = Command::Kind::kRun;
  } else if (sub == "pair") {
    cmd.kind = Command::Kind::kPair;
  } else if (sub == "sched") {
    cmd.kind = Command::Kind::kSched;
  } else if (sub == "timeline") {
    cmd.kind = Command::Kind::kTimeline;
  } else if (sub == "predict") {
    cmd.kind = Command::Kind::kPredict;
  } else if (sub == "trace") {
    cmd.kind = Command::Kind::kTrace;
  } else if (sub == "tune") {
    cmd.kind = Command::Kind::kTune;
  } else if (sub == "serve") {
    cmd.kind = Command::Kind::kServe;
  } else if (sub == "store") {
    cmd.kind = Command::Kind::kStore;
  } else if (sub == "help" || sub == "--help" || sub == "-h") {
    cmd.kind = Command::Kind::kHelp;
  } else {
    res.error = "unknown subcommand '" + sub + "'";
    return res;
  }

  const FlagSet fs = make_flag_table(&cmd);
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) {
      // `paxsim store` takes its action — and, for `get`, the digest — as
      // positional arguments.
      if (cmd.kind == Command::Kind::kStore && cmd.store_action.empty()) {
        cmd.store_action = args[i];
        continue;
      }
      if (cmd.kind == Command::Kind::kStore && cmd.store_action == "get" &&
          cmd.store_digest.empty()) {
        cmd.store_digest = args[i];
        continue;
      }
      res.error = "unexpected argument '" + args[i] + "'";
      return res;
    }
    if (fs.parse_flag(args[i], &res.error) != FlagSet::Outcome::kOk) {
      return res;
    }
  }

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
        need(cmd.options.check_mode == sim::CheckMode::kOff,
             "--profile and --check are mutually exclusive (one sink per "
             "machine)");
      }
      break;
    case Command::Kind::kPredict:
      need(cmd.benches.size() == 1, "predict needs --bench=<one benchmark>");
      need(!cmd.config_name.empty(), "predict needs --config=<name>");
      break;
    case Command::Kind::kTrace:
      need(cmd.benches.size() == 1, "trace needs --bench=<one benchmark>");
      need(!cmd.config_name.empty(), "trace needs --config=<name>");
      need(cmd.options.check_mode == sim::CheckMode::kOff,
           "trace and --check are mutually exclusive (one sink per machine)");
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
        const npb::Benchmark bench = cmd.benches[0];
        harness::ExperimentEngine engine(cmd.jobs);
        attach_store(engine, cmd);
        const auto pr = engine.predict(bench, cmd.config, opt, seed);
        const std::string label =
            std::string(npb::benchmark_name(bench)) + "@" + cmd.config_name;
        if (cmd.csv) {
          harness::print_prediction_json(
              out, std::string(npb::benchmark_name(bench)), cmd.config_name,
              pr.prediction);
        } else {
          harness::print_prediction(out, label, pr.prediction, false);
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
        if (cmd.profile) {
          if (!cmd.config.is_serial()) {
            err << "error: --profile=on requires --config=\"Serial\" (the "
                   "profile is collected from a serial run)\n";
            return 1;
          }
          const auto prof = harness::run_profiled_serial(bench, opt, seed);
          print_result(out,
                       std::string(npb::benchmark_name(bench)) + "@Serial",
                       prof.result, cmd.csv);
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
        harness::ExperimentEngine engine(cmd.jobs);
        attach_store(engine, cmd);
        auto plan = harness::ExperimentPlan(opt, {cmd.config})
                        .add_benchmark(bench)
                        .with_serial_baselines(cmd.baseline)
                        .trials(1);
        const auto study = engine.run(plan);
        const auto& r = study.single(bench, 0);
        print_result(out,
                     std::string(npb::benchmark_name(bench)) + "@" +
                         cmd.config_name,
                     r, cmd.csv);
        if (cmd.baseline) {
          const auto& s = study.serial(bench);
          print_result(out,
                       std::string(npb::benchmark_name(bench)) + "@Serial",
                       s, cmd.csv);
          out << "speedup," << study.speedup(bench, 0) << '\n';
        }
        return report_check(out, opt, r.check, cmd.csv);
      }
      case Command::Kind::kPair: {
        harness::ExperimentEngine engine(cmd.jobs);
        attach_store(engine, cmd);
        const auto r = engine.pair(cmd.benches[0], cmd.benches[1], cmd.config,
                                   opt, seed);
        for (int p = 0; p < 2; ++p) {
          print_result(out,
                       std::string(npb::benchmark_name(cmd.benches[p])) +
                           "[" + std::to_string(p) + "]@" + cmd.config_name,
                       r.program[p], cmd.csv);
        }
        // One machine-wide checker covers both programs; the report is
        // shared, so print it once.
        return report_check(out, opt, r.program[0].check, cmd.csv);
      }
      case Command::Kind::kTimeline: {
        harness::ExperimentEngine engine(cmd.jobs);
        const auto tl =
            engine.timeline(cmd.benches[0], cmd.config, opt, seed);
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
        return report_check(out, opt, tl.run.check, cmd.csv);
      }
      case Command::Kind::kTrace: {
        harness::RunOptions traced = opt;
        // The Chrome export needs the event stream; the stack tables need
        // only the accountant.  engine.trace() substitutes kStacks for kOff.
        if (!cmd.trace_out.empty() &&
            traced.trace_mode != sim::TraceMode::kEvents &&
            traced.trace_mode != sim::TraceMode::kFull) {
          traced.trace_mode = sim::TraceMode::kFull;
        }
        harness::ExperimentEngine engine(cmd.jobs);
        const auto tr = engine.trace(cmd.benches[0], cmd.config, traced, seed);
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
        harness::ExperimentEngine engine(cmd.jobs);
        auto policy = make_policy(cmd.policy, seed);
        const auto r =
            engine.scheduled(cmd.benches, cmd.config, *policy, opt, seed);
        for (std::size_t p = 0; p < r.program.size(); ++p) {
          print_result(out,
                       std::string(npb::benchmark_name(cmd.benches[p])) +
                           "[" + std::to_string(p) + "]@" + cmd.config_name +
                           "/" + r.scheduler,
                       r.program[p], cmd.csv);
        }
        out << "migrations," << r.migrations << '\n';
        // Every program carries the same machine-wide report.
        return report_check(out, opt, r.program[0].check, cmd.csv);
      }
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
  return 1;
}

}  // namespace paxsim::cli
