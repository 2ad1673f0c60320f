// bench/table2_avg_speedup.cpp — regenerates Table 2 of the paper:
// average speedup across all study benchmarks, per multithreaded
// architecture (SMT, CMP, CMT, SMP, SMT-/CMP-/CMT-based SMP).
#include <algorithm>
#include <iostream>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  const cli::FlagSet fs = bench::make_bench_flags(opt);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header("Table 2: average speedup per architecture", opt);
  bench::print_host_provenance("table2_avg_speedup", opt);

  // A column per row, labelled by its architecture; an architecture the
  // machine realises twice (numa16's two CMP rows) adds the row name.
  const auto configs = bench::parallel_study_configs(opt);
  std::vector<std::string> cols;
  for (const auto& c : configs) {
    std::string col(harness::architecture_name(c.arch));
    const auto same = [&c](const auto& o) { return o.arch == c.arch; };
    if (std::count_if(configs.begin(), configs.end(), same) > 1) {
      col += " (" + c.name + ")";
    }
    cols.push_back(std::move(col));
  }

  harness::ExperimentEngine engine(opt.jobs);
  attach_store(engine, opt);
  const auto study = engine.run(harness::ExperimentPlan(opt.run, configs)
                                    .add_benchmarks(bench::study_benchmarks())
                                    .with_serial_baselines());

  std::vector<double> avg(configs.size(), 0.0);
  for (const npb::Benchmark b : bench::study_benchmarks()) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      avg[i] += study.speedup_stats(b, i).mean;
    }
  }
  const auto nb = static_cast<double>(bench::study_benchmarks().size());
  for (double& v : avg) v /= nb;

  harness::Table table("Table 2 — average speedup for architectures", cols);
  table.add_row("avg speedup", avg);
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);

  // The paper's two headline deltas.  A machine has all three rows or
  // neither delta: CMT-based SMP exists exactly when CMT and CMP-based SMP
  // both do.
  const auto* cmt = bench::find_arch(configs, harness::Architecture::kCMT);
  const auto* cmp_smp = bench::find_arch(configs, harness::Architecture::kCmpSmp);
  const auto* cmt_smp = bench::find_arch(configs, harness::Architecture::kCmtSmp);
  if (cmt != nullptr && cmp_smp != nullptr && cmt_smp != nullptr) {
    const auto at = [&](const harness::StudyConfig* c) {
      return avg[static_cast<std::size_t>(c - configs.data())];
    };
    std::printf("CMT (%s) vs CMP-based SMP (%s): %+.1f%%  (paper: -3.6%%)\n",
                cmt->name.c_str(), cmp_smp->name.c_str(),
                100.0 * (at(cmt) / at(cmp_smp) - 1.0));
    std::printf("CMT-based SMP (%s) vs CMP-based SMP    : %+.1f%%  "
                "(paper: ~-6.7%%)\n",
                cmt_smp->name.c_str(),
                100.0 * (at(cmt_smp) / at(cmp_smp) - 1.0));
  } else {
    std::printf("headline deltas left out: the machine lacks a CMT, "
                "CMP-based SMP or CMT-based SMP row\n");
  }
  bench::print_engine_stats(engine);
  return 0;
}
