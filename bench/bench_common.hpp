// bench/bench_common.hpp
//
// Shared scaffolding for the paper-artifact benches: the one flag path
// (make_bench_flags + parse_args), the host-provenance line, and the
// benchmark list of the paper's single-program study.
#pragma once

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/flags.hpp"
#include "paxsim.hpp"

// Build provenance macros are injected by the root CMakeLists on
// paxsim_options; default them so out-of-tree compiles still build.
#ifndef PAXSIM_BUILD_TYPE
#define PAXSIM_BUILD_TYPE "unknown"
#endif
#ifndef PAXSIM_BUILD_NATIVE
#define PAXSIM_BUILD_NATIVE 0
#endif

namespace paxsim::bench {

/// Options common to every artifact bench.
struct BenchOptions {
  harness::RunOptions run;
  int jobs = 1;           ///< host worker threads for independent cells
  bool csv = false;       ///< additionally emit CSV rows after each table
  /// --store=DIR: persistent result store every engine the bench builds
  /// attaches (attach_store below); previously answered cells skip
  /// simulation.  Empty / --store=off runs detached, bit-identical to the
  /// storeless engine.
  std::string store_dir;
};

/// The flags every bench shares: the run/engine tables the `paxsim` CLI
/// registers (cli/flags.hpp) plus --csv, so every artifact accepts the same
/// spellings with the same validation as the CLI by construction.  A bench
/// adds the flags only it reads (--plot, --out, ...) to the returned set.
inline cli::FlagSet make_bench_flags(BenchOptions& opt) {
  cli::FlagSet fs;
  cli::register_run_flags(fs, &opt.run);
  cli::register_engine_flags(fs, &opt.jobs, &opt.store_dir);
  fs.add_flag("csv", &opt.csv, "additionally emit CSV rows after each table");
  return fs;
}

/// Registers --plot=DIR on the benches that draw a gnuplot chart (fig3 and
/// fig5).  DIR must already exist: the chart is written after the whole
/// study has run, so a bad path is refused up front instead.
inline void add_plot_flag(cli::FlagSet& fs, std::string* dir) {
  cli::FlagSpec s;
  s.name = "plot";
  s.value_hint = "DIR";
  s.help = "also write gnuplot .dat/.gp files under DIR";
  s.apply = [dir](const std::string& v) -> std::string {
    if (!std::filesystem::is_directory(v)) {
      return "bad --plot '" + v + "' (need an existing directory)";
    }
    *dir = v;
    return {};
  };
  fs.add(std::move(s));
}

/// Parses argv through the bench's flag table @p fs.  Returns the exit code
/// when the bench should stop (0 after --help, 2 after an error line for an
/// unknown or invalid flag), or nullopt to run.
inline std::optional<int> parse_args(int argc, char** argv,
                                     const cli::FlagSet& fs) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::printf("usage: %s [flags]\n%s", argv[0], fs.help_text(2).c_str());
      return 0;
    }
    std::string error;
    if (fs.parse_flag(a, &error) != cli::FlagSet::Outcome::kOk) {
      std::fprintf(stderr, "error: %s (try --help)\n", error.c_str());
      return 2;
    }
  }
  return std::nullopt;
}

/// Host/build provenance, emitted as `"host":{...}` into the currently open
/// object of @p j, e.g.
///   "host":{"hardware_concurrency":16,"jobs":2,"compiler":"13.2.0",
///           "build_type":"Release","native":false}
/// so throughput numbers from different machines, thread budgets and build
/// flavours are never compared as if they were the same experiment.
inline void write_host_provenance(report::Json& j, const BenchOptions& opt) {
  j.key("host").object();
  j.field("hardware_concurrency",
          static_cast<unsigned>(std::thread::hardware_concurrency()));
  j.field("jobs", opt.jobs);
  j.field("compiler", __VERSION__);
  j.field("build_type", PAXSIM_BUILD_TYPE);
  j.field("native", PAXSIM_BUILD_NATIVE != 0);
  j.end();
}

/// Prints the one-line provenance envelope every bench emits after its
/// header; downstream collectors join it to the bench's rows on the
/// artifact name.
inline void print_host_provenance(const char* artifact,
                                  const BenchOptions& opt) {
  report::Json j(std::cout);
  j.object();
  j.field("artifact", artifact);
  j.field("kind", "host_provenance");
  write_host_provenance(j, opt);
  j.finish();
}

/// Attaches the --store directory (when given) to a freshly built engine.
/// Every artifact that constructs an ExperimentEngine calls this right
/// after construction, so `--store=` works uniformly across bench/.
inline void attach_store(harness::ExperimentEngine& engine,
                         const BenchOptions& opt) {
  if (!opt.store_dir.empty()) {
    engine.set_store(std::make_shared<serve::ResultStore>(opt.store_dir));
  }
}

/// One-line engine accounting footer (cache effectiveness + pool reuse).
inline void print_engine_stats(const harness::ExperimentEngine& engine) {
  const harness::EngineStats s = engine.stats();
  std::printf(
      "engine: %llu simulated, %llu cached (hit rate %.1f%%), "
      "%llu machines built for %llu acquisitions\n",
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.cache_hits), 100.0 * s.hit_rate(),
      static_cast<unsigned long long>(s.machines_created),
      static_cast<unsigned long long>(s.machines_acquired));
}

/// The six benchmarks of the paper's single-program sections (the two
/// remaining suite members, EP and IS, appear in the cross-product study).
inline const std::vector<npb::Benchmark>& study_benchmarks() {
  static const std::vector<npb::Benchmark> v = {
      npb::Benchmark::kCG, npb::Benchmark::kMG, npb::Benchmark::kLU,
      npb::Benchmark::kFT, npb::Benchmark::kSP, npb::Benchmark::kBT};
  return v;
}

/// Prints the artifact banner and the run's machine (its resolved topology
/// and --scale), so each artifact is self-describing.
inline void print_study_header(const char* artifact, const BenchOptions& opt) {
  const sim::Topology topo = opt.run.resolved_topology();
  std::printf("paxsim reproduction of Grant & Afsahi, IPPS 2007 — %s\n",
              artifact);
  std::printf(
      "machine: %s — %d chips x %d cores x %d contexts "
      "(capacity scale 1/%g)\n\n",
      topo.name.c_str(), topo.packages, topo.cores_per_package,
      topo.smt_per_core, opt.run.machine_scale);
}

/// The run machine's multithreaded rows: its Table-1 rows minus Serial.
inline std::vector<harness::StudyConfig> parallel_study_configs(
    const BenchOptions& opt) {
  auto configs = harness::configs_for(opt.run.resolved_topology());
  configs.erase(configs.begin());  // configs_for() puts Serial first
  return configs;
}

/// The first row of @p configs realising @p arch; nullptr when the machine
/// has no such row (no "HT on" rows without SMT, for example).
inline const harness::StudyConfig* find_arch(
    const std::vector<harness::StudyConfig>& configs,
    harness::Architecture arch) {
  for (const harness::StudyConfig& c : configs) {
    if (c.arch == arch) return &c;
  }
  return nullptr;
}

/// The first row of @p configs with the most contexts among those spanning
/// at most @p max_chips packages (Serial qualifies for any).
inline const harness::StudyConfig& widest_config(
    const std::vector<harness::StudyConfig>& configs, int max_chips = 1 << 30) {
  const harness::StudyConfig* widest = &configs.front();
  for (const harness::StudyConfig& c : configs) {
    if (c.chips <= max_chips && c.cpus.size() > widest->cpus.size()) {
      widest = &c;
    }
  }
  return *widest;
}

}  // namespace paxsim::bench
