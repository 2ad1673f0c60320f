// paxsim/cli/cli.hpp
//
// The `paxsim` command-line driver, split into a testable library (command
// parsing + execution against an abstract output stream) and a thin main.
//
// Flags are declarative: each command word builds its own cli::FlagSet
// (src/cli/flags.hpp) from the rows it reads — for `store`, its positional
// action picks the table — and the same table both parses argv and renders
// that word's section of usage(), so the help can never drift from what
// the parser accepts, and a flag the word would ignore is refused.  The
// rows shared with bench/ (the cell flags, --jobs, --store) are defined
// once in flags.hpp, so `paxsim` and the benches agree on spellings and
// validation by construction.
//
// Subcommands:
//   paxsim list                        — benchmarks, classes, configurations
//   paxsim run   --bench=CG --config="HT on -4-1" [--class=B] [--seed=N]
//                [--jobs=N] [--csv] [--baseline] [--check=mode]
//   paxsim pair  --bench=CG,FT --config="HT off -4-2" [...]
//   paxsim sched --bench=CG,FT --config="HT on -8-2" --policy=symbiotic
//   paxsim timeline --bench=CG --config="HT on -8-2"
//   paxsim predict --bench=CG --config="HT on -8-2" [--compare]
//   paxsim trace --bench=CG --config="HT on -8-2" [--trace=stacks|events|full]
//                [--trace-out=FILE] [--regions] [--stacks]
//   paxsim tune  [--bench=CG,...] [--top-k=N] [--schedules=...]
//                [--chunks=...] [--grains=...] [--scales=...] [--out=FILE]
//                — rank every cell on the model, simulate the top N
//   paxsim serve --jobs-file=plan.json [--store=DIR] [--jobs=N]
//                [--max-cells=N] [--quiet]
//   paxsim store <stat|ls|gc|verify> --store=DIR
//   paxsim store get <digest> --store=DIR        — or name the cell by its
//                [--bench=CG --config=... flags]   axes instead of a digest
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "paxsim.hpp"

namespace paxsim::cli {

/// Parsed command line.
struct Command {
  enum class Kind {
    kList, kRun, kPair, kSched, kTimeline, kPredict, kTrace, kTune, kServe,
    kStore, kHelp
  };

  Kind kind = Kind::kHelp;
  std::vector<npb::Benchmark> benches;  ///< 1 for run/predict, 2 for pair/sched
  std::string config_name;              ///< Table-1 configuration
  /// The --config row, looked up in the --machine's table by parse().
  harness::StudyConfig config;
  /// --machine spec: a topology preset name ("paxville", "woodcrest", ...)
  /// or a path to a schema_version'd topology JSON file.  Empty runs the
  /// default machine; the flag table resolves it into options.topology.
  std::string machine;
  std::string policy = "pinned-spread"; ///< sched subcommand policy
  harness::RunOptions options;
  /// --check: the analyses a run/pair/sched/timeline attaches to its
  /// machine (off attaches nothing).
  sim::CheckMode check = sim::CheckMode::kOff;
  /// --trace: the depth `trace` records at (off records the stacks).
  sim::TraceMode trace = sim::TraceMode::kOff;
  int jobs = 1;                         ///< run/serve: host worker threads
  bool csv = false;
  bool baseline = false;                ///< also run + report serial
  bool compare = false;                 ///< predict: also simulate + errors
  bool profile = false;                 ///< run: profiled serial + summary
  std::string trace_out;                ///< trace: Chrome-tracing JSON file
  bool regions = false;                 ///< trace: print the region table
  bool stacks = false;                  ///< trace: print the context stacks
  /// --store=DIR|off: persistent result store for run/pair/predict/tune/
  /// serve/store ("off" and empty both mean detached — bit-identical to
  /// the storeless engine).  serve may instead take the directory from the
  /// job file.
  std::string store_dir;
  std::string jobs_file;                ///< serve: the job-file path
  std::string store_action;             ///< store: stat|ls|gc|verify|get
  std::string store_digest;             ///< store get: positional 32-hex digest
  std::string get_mode = "single";      ///< store get: single|pair|predict
  std::uint64_t max_cells = 0;          ///< serve: compute bound (0 = all)
  bool quiet = false;                   ///< serve: suppress per-cell lines

  // ---- tune -----------------------------------------------------------------
  /// --top-k and the --schedules/--chunks/--grains/--scales axes; an axis
  /// left empty is the single point `options` names.
  tune::TuneOptions tune;
  std::string tune_out;                 ///< --out: tuning_report JSON file
};

/// Parse result: a command, or an error message for the user.
struct ParseResult {
  std::optional<Command> command;
  std::string error;  ///< non-empty iff command is empty

  [[nodiscard]] bool ok() const noexcept { return command.has_value(); }
};

/// Parses argv (excluding argv[0]).  Pure; no I/O.
[[nodiscard]] ParseResult parse(const std::vector<std::string>& args);

/// Exit code of a checked `run`, `pair`, `sched` or `timeline` whose check
/// report is not clean (after the report is printed).  1 stays errors, 2
/// stays usage.
inline constexpr int kExitFindings = 3;

/// Executes @p cmd, writing human-readable (or CSV) output to @p out and
/// diagnostics to @p err.  Returns a process exit code.
int execute(const Command& cmd, std::ostream& out, std::ostream& err);

/// Usage text (the flag section is generated from the flag table).
[[nodiscard]] std::string usage();

}  // namespace paxsim::cli
