// bench/ext_autotune.cpp — EXTENSION artifact: model-driven autotuning.
//
// The paper finds its Table-2 best configurations by brute force: simulate
// every architecture x benchmark cell and read off the winner.  This
// artifact asks whether the PR 4 analytical model can steer that search —
// the tuner explores the configuration space through the model tier
// (microseconds per point after one profiling run), then validates only
// the top-ranked candidates on the cycle-level simulator.  With the
// default greedy strategy it rediscovers every per-kernel winner with a
// quarter of the simulator invocations the grid needs, and the emitted
// tuning_report records both the winners and the exact model/simulator
// cell counts so the claim is checkable from the artifact alone.
#include <fstream>
#include <iostream>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassS;
  tune::TuneOptions topt;
  std::string out_path = "autotune_report.json";

  // The cell flags plus the tuner's own knobs — one FlagSet, so --help and
  // validation cover both uniformly.  Every search axis but the
  // configuration is the single point the cell flags name.
  cli::FlagSet fs = bench::make_bench_flags(opt);
  cli::register_store_flag(fs, &opt.store_dir);
  fs.add_string("strategy", &topt.strategy, "NAME",
                "search strategy: grid, greedy or anneal");
  fs.add_int("top-k", &topt.top_k, 1, "N",
             "simulator validations per kernel (non-exhaustive strategies)");
  fs.add_int("budget", &topt.anneal_budget, 1, "N", "anneal proposal steps");
  fs.add_string("out", &out_path, "FILE",
                "tuning_report JSON path (\"off\" disables the file)");
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;

  const std::string machine_spec =
      opt.run.topology == nullptr ? std::string() : opt.run.topology->name;
  bench::print_study_header("Extension: model-driven autotuning", opt);
  bench::print_host_provenance("ext_autotune", opt);

  harness::ExperimentEngine engine;
  bench::attach_store(engine, opt);

  const std::vector<npb::Benchmark> benches(std::begin(npb::kAllBenchmarks),
                                            std::end(npb::kAllBenchmarks));
  tune::TuneReport rep;
  try {
    rep = tune::tune(engine, benches, opt.run, machine_spec, topt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  harness::Table table(
      "autotuned best configuration per kernel (strategy " + rep.strategy +
          ", class " + rep.problem_class + ")",
      {"sim Mcycles", "speedup", "model cells", "sim cells"});
  for (const tune::KernelResult& kr : rep.kernels) {
    table.add_row(std::string(npb::benchmark_name(kr.bench)) + "  " +
                      kr.best.config_name,
                  {kr.best.sim_wall / 1e6, kr.best.sim_speedup,
                   static_cast<double>(kr.model_cells),
                   static_cast<double>(kr.sim_cells)});
  }
  table.print(std::cout, 2);
  if (opt.csv) table.print_csv(std::cout);

  std::size_t agreed = 0, sim_cells = 0, model_cells = 0;
  for (const tune::KernelResult& kr : rep.kernels) {
    if (kr.model_agrees) ++agreed;
    sim_cells += kr.sim_cells;
    model_cells += kr.model_cells;
  }
  std::printf(
      "model's top pick was the measured winner on %zu/%zu kernels; "
      "%zu model evaluations steered %zu simulator cells\n",
      agreed, rep.kernels.size(), model_cells, sim_cells);
  bench::print_engine_stats(engine);

  if (!out_path.empty() && out_path != "off") {
    std::ofstream f(out_path);
    if (!f) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   out_path.c_str());
      return 1;
    }
    tune::write_tuning_report(f, rep);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
