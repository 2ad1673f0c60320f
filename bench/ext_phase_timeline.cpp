// bench/ext_phase_timeline.cpp — EXTENSION artifact: per-step architectural
// metric timelines (the VTune sampling view the paper's authors worked
// from, but exact).  Shows how each benchmark's behaviour evolves across
// its timed steps on the machine's widest configuration (HT on -8-2 on
// Paxville) — e.g. CG's cold-cache first solve vs its warm steady state.
#include <iostream>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassA;
  cli::FlagSet fs = bench::make_bench_flags(opt);
  cli::register_jobs_flag(fs, &opt.jobs);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header("Extension: per-step metric timeline", opt);
  bench::print_host_provenance("ext_phase_timeline", opt);

  const harness::StudyConfig cfg =
      bench::widest_config(harness::configs_for(opt.run.resolved_topology()));
  const auto& benches = bench::study_benchmarks();

  // Sampled runs fan out over the engine workers (one pooled machine each);
  // printing happens afterwards, in benchmark order.
  harness::ExperimentEngine engine(opt.jobs);
  std::vector<harness::TimelineResult> timelines(benches.size());
  engine.for_each(benches.size(), [&](std::size_t i) {
    timelines[i] =
        engine.timeline(benches[i], cfg, opt.run, opt.run.trial_seed(0));
  });

  for (std::size_t bi = 0; bi < benches.size(); ++bi) {
    const harness::TimelineResult& tl = timelines[bi];
    harness::Table table(std::string(npb::benchmark_name(benches[bi])) +
                             " per-step metrics on " + cfg.name,
                         {"Mcycles", "CPI", "L1miss", "L2miss", "stall%",
                          "prefetch%"});
    for (std::size_t i = 0; i < tl.timeline.intervals(); ++i) {
      const perf::Metrics m = tl.timeline.metrics(i);
      table.add_row("step " + std::to_string(i),
                    {tl.step_wall[i] / 1e6, m.cpi, m.l1d_miss_rate,
                     m.l2_miss_rate, 100 * m.stalled_fraction,
                     100 * m.prefetch_bus_fraction});
    }
    table.print(std::cout, 3);
    if (opt.csv) tl.timeline.print_csv(std::cout);
    if (!tl.run.verified) {
      std::fprintf(stderr, "verification failed for %s\n",
                   std::string(npb::benchmark_name(benches[bi])).c_str());
      return 1;
    }
  }
  std::printf("Note the cold-start effect: step 0 carries the compulsory\n"
              "misses; the paper's whole-program counters blend this in.\n");
  bench::print_engine_stats(engine);
  return 0;
}
