// bench/fig3_speedup.cpp — regenerates Figure 3 of the paper:
// speedup of each NAS OpenMP benchmark over serial, for every Table-1
// configuration of the run's machine, averaged over trials.  Also prints
// the paper's §4.1.7 CG deep-dive (CMT-based SMP, HT on -8-2, vs CMP-based
// SMP, HT off -4-2) when the machine has both rows.
#include <iostream>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  std::string plot_dir;
  cli::FlagSet fs = bench::make_bench_flags(opt);
  bench::add_plot_flag(fs, &plot_dir);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header("Figure 3: speedup of NAS OpenMP applications",
                            opt);
  bench::print_host_provenance("fig3_speedup", opt);

  const auto configs = bench::parallel_study_configs(opt);
  std::vector<std::string> cols;
  for (const auto& c : configs) cols.emplace_back(c.name);

  // Every (benchmark, config, trial) cell plus the per-trial serial
  // baselines, evaluated in one engine pass.
  harness::ExperimentEngine engine(opt.jobs);
  attach_store(engine, opt);
  const auto study = engine.run(harness::ExperimentPlan(opt.run, configs)
                                    .add_benchmarks(bench::study_benchmarks())
                                    .with_serial_baselines());

  harness::Table table("Figure 3 — speedup over serial", cols);
  harness::Table cv("trial variance (coefficient of variation)", cols);
  harness::BarChart chart{"Figure 3 — speedup of NAS OpenMP applications",
                          "speedup over serial", cols, {}, {}};
  for (const npb::Benchmark b : bench::study_benchmarks()) {
    std::vector<double> speedups, cvs;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const harness::TrialStats st = study.speedup_stats(b, ci);
      speedups.push_back(st.mean);
      cvs.push_back(st.cv());
    }
    chart.groups.emplace_back(npb::benchmark_name(b));
    chart.values.push_back(speedups);
    table.add_row(std::string(npb::benchmark_name(b)), speedups);
    cv.add_row(std::string(npb::benchmark_name(b)), cvs);
  }
  table.print(std::cout);
  cv.print(std::cout, 4);
  if (opt.csv) table.print_csv(std::cout);
  if (!plot_dir.empty()) {
    const std::string gp =
        harness::write_bar_chart(plot_dir, "fig3_speedup", chart);
    std::printf("wrote %s (render with gnuplot)\n\n", gp.c_str());
  }

  // --- §4.1.7: why CG behaves differently at full load ----------------------
  // Cache hits: both cells were already simulated for the table above.
  const auto* cmp_smp = bench::find_arch(configs, harness::Architecture::kCmpSmp);
  const auto* cmt_smp = bench::find_arch(configs, harness::Architecture::kCmtSmp);
  if (cmp_smp != nullptr && cmt_smp != nullptr) {
    const auto seed = opt.run.trial_seed(0);
    const auto r4 = engine.single(npb::Benchmark::kCG, *cmp_smp, opt.run, seed);
    const auto r8 = engine.single(npb::Benchmark::kCG, *cmt_smp, opt.run, seed);
    harness::Table dive("CG deep-dive (paper §4.1.7)",
                        {cmp_smp->name, cmt_smp->name});
    const perf::Event bus = perf::Event::kBusTransactions;
    dive.add_row("L2 miss rate",
                 {r4.metrics.l2_miss_rate, r8.metrics.l2_miss_rate});
    dive.add_row("L1 miss rate",
                 {r4.metrics.l1d_miss_rate, r8.metrics.l1d_miss_rate});
    dive.add_row("CPI", {r4.metrics.cpi, r8.metrics.cpi});
    dive.add_row("prefetch bus share", {r4.metrics.prefetch_bus_fraction,
                                        r8.metrics.prefetch_bus_fraction});
    dive.add_row("bus transactions",
                 {static_cast<double>(r4.counters.get(bus)),
                  static_cast<double>(r8.counters.get(bus))});
    dive.print(std::cout);
    if (opt.csv) dive.print_csv(std::cout);
  } else {
    std::printf("CG deep-dive (paper §4.1.7) left out: the machine lacks a "
                "CMP-based SMP or CMT-based SMP row\n");
  }
  bench::print_engine_stats(engine);
  return 0;
}
