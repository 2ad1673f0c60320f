// bench/ext_thread_scaling.cpp — EXTENSION artifact: speedup-vs-threads
// curves, the `maxcpus=` methodology of the paper's Section 3 taken to its
// natural presentation.  For each benchmark, threads are added in the
// machine's flat enumeration order (A0, A1, ..., A7 on the default
// Paxville), so the curve passes through the interesting topology
// boundaries: +SMT sibling, +second core, +second package.  `--machine=`
// retargets the ladder at any topology preset or JSON description; the
// rung count and the boundary notes are derived from the Topology
// accessors, not hard-coded to the 8-context default.
#include <iostream>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassA;
  const cli::FlagSet fs = bench::make_bench_flags(opt);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  const sim::Topology topo = opt.run.resolved_topology();
  bench::print_study_header("Extension: speedup vs thread count (flat order)",
                            opt);
  bench::print_host_provenance("ext_thread_scaling", opt);

  // Build incremental configs by slicing the machine's widest Table-1
  // configuration, which holds every context in flat enumeration order.
  const auto configs = harness::configs_for(topo);
  const harness::StudyConfig& full = bench::widest_config(configs);
  const int total = static_cast<int>(full.cpus.size());
  std::vector<harness::StudyConfig> ladder;
  for (int n = 1; n <= total; ++n) {
    harness::StudyConfig c = full;
    c.threads = n;
    c.cpus.assign(full.cpus.begin(), full.cpus.begin() + n);
    ladder.push_back(std::move(c));
  }

  std::vector<std::string> cols;
  for (int n = 1; n <= total; ++n) cols.push_back(std::to_string(n) + "T");
  harness::Table table("speedup over serial vs maxcpus", cols);

  // The ladder configs all carry the widest config's name; the engine keys
  // its cache on the full context list, so each rung is a distinct cell.
  harness::ExperimentEngine engine(opt.jobs);
  attach_store(engine, opt);
  const auto study = engine.run(harness::ExperimentPlan(opt.run, ladder)
                                    .add_benchmarks(bench::study_benchmarks())
                                    .with_serial_baselines()
                                    .trials(1));
  for (const npb::Benchmark b : bench::study_benchmarks()) {
    std::vector<double> row;
    for (std::size_t ci = 0; ci < ladder.size(); ++ci) {
      row.push_back(study.speedup(b, ci));
    }
    table.add_row(std::string(npb::benchmark_name(b)), row);
  }
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);

  // Where each curve may bend: the rungs at which the next thread lands on
  // a newly replicated resource rather than a shared one.
  std::printf("Topology boundaries:");
  if (topo.smt_per_core > 1) {
    std::printf(" 1->2 adds the SMT sibling;");
  }
  if (topo.cores_per_package > 1) {
    std::printf(" %d->%d the second core;", topo.smt_per_core,
                topo.smt_per_core + 1);
  }
  if (topo.packages > 1) {
    std::printf(" %d->%d the second package;", topo.contexts_per_chip(),
                topo.contexts_per_chip() + 1);
  }
  std::printf(
      "\neach benchmark's curve bends where its bottleneck resource is "
      "replicated.\n");
  bench::print_engine_stats(engine);
  return 0;
}
