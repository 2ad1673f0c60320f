// bench/fig2_arch_metrics.cpp — regenerates Figure 2 of the paper: the nine
// architectural-metric panels (L1/L2/trace-cache miss rate, ITLB miss rate,
// DTLB load+store misses normalised to serial, % stalled cycles, branch
// prediction rate, % prefetching bus accesses, CPI) for every study
// benchmark on every Table-1 configuration.
#include <iostream>
#include <map>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  cli::FlagSet fs = bench::make_bench_flags(opt);
  cli::register_jobs_flag(fs, &opt.jobs);
  cli::register_store_flag(fs, &opt.store_dir);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header("Figure 2: architectural metrics, single program",
                            opt);
  bench::print_host_provenance("fig2_arch_metrics", opt);

  // Serial first: the DTLB panel normalises over it.
  const auto all = harness::configs_for(opt.run.resolved_topology());
  std::vector<std::string> cols;
  for (const auto& c : all) cols.emplace_back(c.name);

  // One run per (benchmark, config), dispatched across the engine's workers.
  harness::ExperimentEngine engine(opt.jobs);
  attach_store(engine, opt);
  const auto study = engine.run(harness::ExperimentPlan(opt.run, all)
                                    .add_benchmarks(bench::study_benchmarks())
                                    .trials(1));
  std::map<npb::Benchmark, std::vector<harness::RunResult>> results;
  for (const npb::Benchmark b : bench::study_benchmarks()) {
    auto& row = results[b];
    row.reserve(all.size());
    for (std::size_t ci = 0; ci < all.size(); ++ci) {
      row.push_back(study.single(b, ci));
    }
  }

  // One table ("panel") per metric.  DTLB misses are normalised to serial,
  // exactly as the paper plots them.
  for (int m = 0; m < perf::kMetricCount; ++m) {
    harness::Table panel(std::string(perf::metric_name(m)), cols);
    for (const npb::Benchmark b : bench::study_benchmarks()) {
      const auto& row = results[b];
      std::vector<double> vals;
      vals.reserve(row.size());
      const double serial_dtlb = row.front().metrics.dtlb_misses;
      for (const auto& r : row) {
        double v = perf::metric_value(r.metrics, m);
        if (perf::metric_name(m) == "dtlb_misses" && serial_dtlb > 0) {
          v /= serial_dtlb;  // "normalized over Serial"
        }
        vals.push_back(v);
      }
      panel.add_row(std::string(npb::benchmark_name(b)), vals);
    }
    panel.print(std::cout, 4);
    if (opt.csv) panel.print_csv(std::cout);
  }
  bench::print_engine_stats(engine);
  return 0;
}
