// bench/fig4_multiprogram.cpp — regenerates Figure 4 of the paper: the
// multi-program study.  Workloads: CG/FT (complementary: memory-bound vs
// compute-bound), FT/FT and CG/CG (identical pairs), co-scheduled with the
// threads split evenly between the two programs at each configuration's
// full width.  Emits the nine metric panels per program plus the three
// speedup panels (per-program speedup over that program's serial run).
#include <iostream>
#include <iterator>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

namespace {

struct Workload {
  const char* label;
  npb::Benchmark a, b;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  cli::FlagSet fs = bench::make_bench_flags(opt);
  cli::register_jobs_flag(fs, &opt.jobs);
  cli::register_store_flag(fs, &opt.store_dir);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header(
      "Figure 4: multi-program workloads (CG/FT, FT/FT, CG/CG)", opt);
  bench::print_host_provenance("fig4_multiprogram", opt);

  const Workload workloads[] = {
      {"CG/FT", npb::Benchmark::kCG, npb::Benchmark::kFT},
      {"FT/FT", npb::Benchmark::kFT, npb::Benchmark::kFT},
      {"CG/CG", npb::Benchmark::kCG, npb::Benchmark::kCG},
  };

  const auto configs = bench::parallel_study_configs(opt);
  std::vector<std::string> cols;
  for (const auto& c : configs) cols.emplace_back(c.name);

  // All three workloads across every configuration, plus the serial
  // baselines for the speedup panels, in one engine pass.
  harness::ExperimentEngine engine(opt.jobs);
  attach_store(engine, opt);
  auto plan = harness::ExperimentPlan(opt.run, configs)
                  .with_serial_baselines()
                  .trials(1);
  for (const Workload& w : workloads) plan.add_pair(w.a, w.b);
  const auto study = engine.run(plan);

  const double serial_cg = study.serial(npb::Benchmark::kCG).wall_cycles;
  const double serial_ft = study.serial(npb::Benchmark::kFT).wall_cycles;

  for (std::size_t wi = 0; wi < std::size(workloads); ++wi) {
    const Workload& w = workloads[wi];
    std::printf("---- workload %s ----\n", w.label);
    std::vector<harness::PairResult> runs;
    runs.reserve(configs.size());
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      runs.push_back(study.pair(wi, ci));
    }
    // Metric panels: one row per program.
    for (int m = 0; m < perf::kMetricCount; ++m) {
      harness::Table panel(std::string(w.label) + " " +
                               std::string(perf::metric_name(m)),
                           cols);
      for (int p = 0; p < 2; ++p) {
        std::vector<double> vals;
        for (const auto& r : runs) {
          vals.push_back(perf::metric_value(r.program[p].metrics, m));
        }
        panel.add_row(std::string(npb::benchmark_name(p == 0 ? w.a : w.b)) +
                          "(" + w.label + ")[" + std::to_string(p) + "]",
                      vals);
      }
      panel.print(std::cout, 4);
      if (opt.csv) panel.print_csv(std::cout);
    }
    // Speedup panel: per-program speedup over its own serial run.
    harness::Table sp(std::string(w.label) + " multiprogrammed speedup over serial",
                      cols);
    for (int p = 0; p < 2; ++p) {
      const npb::Benchmark b = p == 0 ? w.a : w.b;
      const double serial = b == npb::Benchmark::kCG ? serial_cg : serial_ft;
      std::vector<double> vals;
      for (const auto& r : runs) {
        vals.push_back(serial / r.program[p].wall_cycles);
      }
      sp.add_row(std::string(npb::benchmark_name(b)) + "[" + std::to_string(p) + "]",
                 vals);
    }
    sp.print(std::cout);
    if (opt.csv) sp.print_csv(std::cout);
  }
  bench::print_engine_stats(engine);
  return 0;
}
