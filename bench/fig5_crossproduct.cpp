// bench/fig5_crossproduct.cpp — regenerates Figure 5 of the paper: the
// cross-product multi-program study.  Every unordered pair from the full
// eight-benchmark suite (including identical pairs) is co-scheduled on each
// multithreaded configuration of the run's machine; the distribution of
// per-program speedups over serial is summarised as a box-and-whiskers plot
// per configuration.
//
// This is the heaviest artifact: use --class=A (default here) or --class=W
// for a quick pass; --class=B matches the other figures.
#include <iostream>
#include <map>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassA;  // cross-product default
  std::string plot_dir;
  cli::FlagSet fs = bench::make_bench_flags(opt);
  cli::register_jobs_flag(fs, &opt.jobs);
  cli::register_store_flag(fs, &opt.store_dir);
  bench::add_plot_flag(fs, &plot_dir);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header(
      "Figure 5: multi-programmed speedup of NAS benchmark pairs", opt);
  bench::print_host_provenance("fig5_crossproduct", opt);

  // The configurations a pair can fully load: every row with >= 2 contexts.
  const auto configs = bench::parallel_study_configs(opt);

  // The full cross-product (36 unordered pairs x every row, 7 on Paxville)
  // plus the eight serial baselines — one declarative plan, fanned out over
  // --jobs workers with every repeated cell served from the engine cache.
  const std::vector<npb::Benchmark> suite(std::begin(npb::kAllBenchmarks),
                                          std::end(npb::kAllBenchmarks));
  harness::ExperimentEngine engine(opt.jobs);
  attach_store(engine, opt);
  const auto study = engine.run(harness::ExperimentPlan(opt.run, configs)
                                    .add_all_pairs(suite)
                                    .with_serial_baselines()
                                    .trials(1));

  std::map<npb::Benchmark, double> serial;
  for (const npb::Benchmark b : npb::kAllBenchmarks) {
    serial[b] = study.serial(b).wall_cycles;
  }

  std::vector<std::pair<std::string, harness::BoxStats>> boxes;
  double lo = 1e300, hi = -1e300;
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const char* name = configs[ci].name.c_str();
    std::vector<double> speedups;
    for (std::size_t pi = 0; pi < study.plan().pairs().size(); ++pi) {
      const auto& [a, b] = study.plan().pairs()[pi];
      const harness::PairResult& r = study.pair(pi, ci);
      speedups.push_back(serial[a] / r.program[0].wall_cycles);
      speedups.push_back(serial[b] / r.program[1].wall_cycles);
    }
    const harness::BoxStats box = harness::box_summary(speedups);
    lo = std::min(lo, box.min);
    hi = std::max(hi, box.max);
    boxes.emplace_back(name, box);
    if (opt.csv) {
      for (const double s : speedups) {
        std::printf("fig5,%s,speedup,%.4f\n", name, s);
      }
    }
  }

  std::printf("Multi-Programmed Speedup of NAS Benchmark Pairs (per-program, "
              "all %zu pairs)\n",
              std::size(npb::kAllBenchmarks) * (std::size(npb::kAllBenchmarks) + 1) / 2);
  std::printf("scale: [%.2f, %.2f]\n\n", lo, hi);
  for (const auto& [name, box] : boxes) {
    harness::print_box_line(std::cout, name, box, lo, hi);
  }
  if (!plot_dir.empty()) {
    harness::BoxChart chart{"Figure 5 — multi-programmed speedup of NAS pairs",
                            "speedup over serial",
                            {},
                            {}};
    for (const auto& [name, box] : boxes) {
      chart.labels.push_back(name);
      chart.boxes.push_back(box);
    }
    const std::string gp =
        harness::write_box_chart(plot_dir, "fig5_crossproduct", chart);
    std::printf("\nwrote %s (render with gnuplot)\n", gp.c_str());
  }
  bench::print_engine_stats(engine);
  return 0;
}
