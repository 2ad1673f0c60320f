// paxsim/cli/flags.hpp
//
// The declarative flag layer shared by the CLI (src/cli/cli.cpp) and every
// bench driver (bench/bench_common.hpp).  A FlagSet is a table of FlagSpec
// rows — name, value hint, default, help text and a validating apply
// function — consumed three ways:
//
//   * parse_flag()  turns one "--key=value" token into a write-through to
//                   the owner's option struct (or a typed error);
//   * parse()       runs a whole argv tail through the table;
//   * help_text()   renders the table as aligned, self-documenting help,
//                   so `--help` output can never drift from what the
//                   parser actually accepts.
//
// Each `paxsim` command word and each bench builds its own table from the
// rows it reads, so a flag it would ignore is refused instead.  The rows
// more than one table registers are defined once, below: the cell flags
// (problem class, seeding, grain, schedule override, machine spec and
// scale, verification) bound onto a harness::RunOptions, host parallelism
// and store attachment — so the CLI and bench/ accept the same spellings
// with the same validation by construction.
//
// Header-only on purpose: bench drivers link the harness libraries but not
// paxsim_cli, and a table of closures needs no translation unit.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "harness/runner.hpp"
#include "npb/kernel.hpp"
#include "sim/topology.hpp"
#include "tune/tuner.hpp"

namespace paxsim::cli {

/// Parses @p v as a plain decimal integer no greater than @p max: digits
/// only — no sign, no spaces — and refused rather than wrapped or clamped
/// when out of range, the rule JsonValue::as_u64 applies to job files.
inline bool parse_decimal(const std::string& v, std::uint64_t max,
                          std::uint64_t* out) {
  if (v.empty()) return false;
  std::uint64_t x = 0;
  for (const char c : v) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (x > (max - d) / 10) return false;
    x = x * 10 + d;
  }
  *out = x;
  return true;
}

/// One declarative flag: everything the parser and the help renderer need.
struct FlagSpec {
  std::string name;        ///< flag name without the leading "--"
  std::string value_hint;  ///< e.g. "N", "S|W|A|B"; empty for bare flags
  std::string def;         ///< rendered default value (empty hides it)
  std::string help;        ///< one-line description
  bool bare_ok = false;    ///< may appear as "--name" with no value
  /// Validates @p value and writes it through to the owner's options.
  /// Returns the user-facing error message, or empty on success.
  std::function<std::string(const std::string&)> apply;
};

/// A table of FlagSpec rows with parse and help-rendering front-ends.
class FlagSet {
 public:
  FlagSet& add(FlagSpec spec) {
    specs_.push_back(std::move(spec));
    return *this;
  }

  /// Bare boolean flag: "--name" sets *out to true.
  FlagSet& add_flag(std::string name, bool* out, std::string help) {
    FlagSpec s;
    s.name = std::move(name);
    s.help = std::move(help);
    s.bare_ok = true;
    const std::string n = s.name;
    s.apply = [out, n](const std::string& v) -> std::string {
      if (!v.empty()) return "bad --" + n + " (takes no value)";
      *out = true;
      return {};
    };
    return add(std::move(s));
  }

  /// Integer flag of @p out's type: a plain decimal (parse_decimal) from
  /// @p min (>= 0) to the largest value the type holds.
  template <typename T>
  FlagSet& add_int(std::string name, T* out, std::type_identity_t<T> min,
                   std::string hint, std::string help) {
    FlagSpec s;
    s.name = std::move(name);
    s.value_hint = std::move(hint);
    s.def = std::to_string(*out);
    s.help = std::move(help);
    const std::string n = s.name;
    s.apply = [out, min, n](const std::string& v) -> std::string {
      constexpr T kMax = std::numeric_limits<T>::max();
      std::uint64_t x = 0;
      if (!parse_decimal(v, static_cast<std::uint64_t>(kMax), &x) ||
          x < static_cast<std::uint64_t>(min)) {
        return "bad --" + n + " (need an integer from " + std::to_string(min) +
               " to " + std::to_string(kMax) + ")";
      }
      *out = static_cast<T>(x);
      return {};
    };
    return add(std::move(s));
  }

  /// Finite double flag with an inclusive lower bound check supplied by min.
  FlagSet& add_double(std::string name, double* out, double min,
                      std::string hint, std::string help) {
    FlagSpec s;
    s.name = std::move(name);
    s.value_hint = std::move(hint);
    s.def = std::to_string(*out);
    s.help = std::move(help);
    const std::string n = s.name;
    s.apply = [out, min, n](const std::string& v) -> std::string {
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (v.empty() || end == nullptr || *end != '\0' || !std::isfinite(x) ||
          x < min) {
        return "bad --" + n + " (need a finite number >= " +
               std::to_string(min) + ")";
      }
      *out = x;
      return {};
    };
    return add(std::move(s));
  }

  /// Non-empty string flag.
  FlagSet& add_string(std::string name, std::string* out, std::string hint,
                      std::string help) {
    FlagSpec s;
    s.name = std::move(name);
    s.value_hint = std::move(hint);
    s.help = std::move(help);
    const std::string n = s.name;
    s.apply = [out, n](const std::string& v) -> std::string {
      if (v.empty()) return "bad --" + n + " (need a value)";
      *out = v;
      return {};
    };
    return add(std::move(s));
  }

  enum class Outcome { kOk, kUnknown, kError };

  /// Parses one argv token.  kUnknown when the token is not "--name[=v]"
  /// of a registered flag (error is filled with the user-facing message in
  /// both failure outcomes).
  Outcome parse_flag(const std::string& arg, std::string* error) const {
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return Outcome::kUnknown;
    }
    const std::size_t eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    for (const FlagSpec& s : specs_) {
      if (s.name != key) continue;
      if (eq == std::string::npos && !s.bare_ok) {
        *error = "bad --" + key + " (need --" + key + "=" +
                 (s.value_hint.empty() ? "VALUE" : s.value_hint) + ")";
        return Outcome::kError;
      }
      const std::string err = s.apply(value);
      if (!err.empty()) {
        *error = err;
        return Outcome::kError;
      }
      return Outcome::kOk;
    }
    *error = "unknown flag '--" + key + "'";
    return Outcome::kUnknown;
  }

  /// Parses a whole token list; every token must be a registered flag.
  bool parse(const std::vector<std::string>& args, std::string* error) const {
    for (const std::string& a : args) {
      if (parse_flag(a, error) != Outcome::kOk) return false;
    }
    return true;
  }

  /// Renders the table as aligned "--name=HINT  (default D)  help" lines,
  /// one per flag, in registration order, leaving out the rows @p skip
  /// (when given) also has.
  [[nodiscard]] std::string help_text(int indent = 2,
                                      const FlagSet* skip = nullptr) const {
    std::vector<const FlagSpec*> rows;
    std::vector<std::string> heads;
    std::size_t width = 0;
    for (const FlagSpec& s : specs_) {
      if (skip != nullptr && skip->has(s.name)) continue;
      std::string h = "--" + s.name;
      if (!s.value_hint.empty()) h += "=" + s.value_hint;
      width = h.size() > width ? h.size() : width;
      rows.push_back(&s);
      heads.push_back(std::move(h));
    }
    std::string out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out.append(static_cast<std::size_t>(indent), ' ');
      out += heads[i];
      out.append(width - heads[i].size() + 2, ' ');
      out += rows[i]->help;
      if (!rows[i]->def.empty()) {
        out += " (default ";
        out += rows[i]->def;
        out += ')';
      }
      out += '\n';
    }
    return out;
  }

  [[nodiscard]] bool has(std::string_view name) const {
    for (const FlagSpec& s : specs_) {
      if (s.name == name) return true;
    }
    return false;
  }

 private:
  std::vector<FlagSpec> specs_;
};

/// Registers --machine, writing the resolved topology through to @p run.
/// @p machine_spec (optional) also receives the raw spelling, for error
/// messages and report labels.
inline void register_machine_flag(FlagSet& fs, harness::RunOptions* run,
                                  std::string* machine_spec = nullptr) {
  FlagSpec s;
  s.name = "machine";
  s.value_hint = "PRESET|FILE.json";
  s.def = "paxville";
  s.help = "machine to simulate (preset or topology JSON)";
  harness::RunOptions* r = run;
  std::string* spec = machine_spec;
  s.apply = [r, spec](const std::string& v) -> std::string {
    if (v.empty()) return "bad --machine (need a preset name or a JSON file)";
    sim::Topology topo;
    std::string why;
    if (!sim::Topology::resolve(v, &topo, &why)) {
      return "bad --machine: " + why;
    }
    r->topology = std::make_shared<const sim::Topology>(std::move(topo));
    if (spec != nullptr) *spec = v;
    return {};
  };
  fs.add(std::move(s));
}

/// Registers the cell flags — the knobs that name what one simulated cell
/// is, writing through to @p run — on every `paxsim` command word that
/// names a cell and on every artifact bench, so the spellings, defaults
/// and validation can never diverge between them.  --trials is not here
/// (only the benches that average over trials read it), nor are --check
/// and --trace (only `paxsim` reports findings or traces).
inline void register_cell_flags(FlagSet& fs, harness::RunOptions* run,
                                std::string* machine_spec = nullptr) {
  {
    FlagSpec s;
    s.name = "class";
    s.value_hint = "S|W|A|B";
    s.def = "B";
    s.help = "NPB problem class";
    harness::RunOptions* r = run;
    s.apply = [r](const std::string& v) -> std::string {
      if (!npb::parse_class(v, r->cls)) {
        return "bad --class '" + v + "' (use S, W, A or B)";
      }
      return {};
    };
    fs.add(std::move(s));
  }
  fs.add_int("seed", &run->base_seed, 0, "N", "base RNG seed");
  fs.add_int("grain", &run->grain, 1, "N",
             "iterations per scheduling turn (N>1 changes the interleaving)");
  {
    FlagSpec s;
    s.name = "sched";
    s.value_hint = "default|static|dynamic|guided";
    s.def = "default";
    s.help = "override every parallel loop's schedule";
    harness::RunOptions* r = run;
    s.apply = [r](const std::string& v) -> std::string {
      if (!harness::parse_sched_name(v, &r->sched_kind)) {
        return "bad --sched '" + v +
               "' (use default, static, dynamic or guided)";
      }
      return {};
    };
    fs.add(std::move(s));
  }
  fs.add_int("chunk", &run->sched_chunk, 0, "N",
             "chunk parameter for --sched (0 = schedule's default)");
  fs.add_double("scale", &run->machine_scale, 1.0, "F",
                "machine capacity scale factor");
  register_machine_flag(fs, run, machine_spec);
  {
    FlagSpec s;
    s.name = "no-verify";
    s.help = "skip numeric verification";
    s.bare_ok = true;
    harness::RunOptions* r = run;
    s.apply = [r](const std::string&) -> std::string {
      r->verify = false;
      return {};
    };
    fs.add(std::move(s));
  }
}

/// Registers @p name=FILE, a file the command writes after its whole run
/// (a trace, a report), written through to @p path.  FILE's directory must
/// already exist, so a path that cannot be created is refused at parse
/// time instead of after the study.  The writer still checks its open: a
/// file can be unwritable for other reasons.
inline void register_out_file_flag(FlagSet& fs, std::string name,
                                   std::string* path, std::string help) {
  FlagSpec s;
  s.name = std::move(name);
  s.value_hint = "FILE";
  s.help = std::move(help);
  const std::string n = s.name;
  s.apply = [path, n](const std::string& v) -> std::string {
    if (v.empty()) return "bad --" + n + " (need a value)";
    const std::filesystem::path dir = std::filesystem::path(v).parent_path();
    std::error_code ec;
    if (!dir.empty() && !std::filesystem::is_directory(dir, ec)) {
      return "bad --" + n + " '" + v + "' (no directory '" + dir.string() +
             "')";
    }
    *path = v;
    return {};
  };
  fs.add(std::move(s));
}

/// Registers the tuner's search knob, --top-k, written through to @p t, on
/// `paxsim tune` and on ext_autotune.
inline void register_tune_flags(FlagSet& fs, tune::TuneOptions* t) {
  fs.add_int("top-k", &t->top_k, 1, "N",
             "simulate the model's top N cells per kernel");
}

/// Registers --jobs, on the tables of the commands and benches that fan
/// cells out over the engine's host worker threads.
inline void register_jobs_flag(FlagSet& fs, int* jobs) {
  fs.add_int("jobs", jobs, 1, "N", "host worker threads for independent cells");
}

/// Registers --store, on the tables of the commands and benches that
/// memoize their cells in the persistent result store ("off" normalizes
/// to detached: empty).
inline void register_store_flag(FlagSet& fs, std::string* store_dir) {
  FlagSpec s;
  s.name = "store";
  s.value_hint = "DIR|off";
  s.def = "off";
  s.help = "persistent content-addressed result store";
  std::string* dir = store_dir;
  s.apply = [dir](const std::string& v) -> std::string {
    if (v.empty()) return "bad --store (need a directory, or 'off')";
    *dir = (v == "off") ? std::string() : v;
    return {};
  };
  fs.add(std::move(s));
}

}  // namespace paxsim::cli
