// bench/ext_scheduler_study.cpp — EXTENSION artifact (the paper's §5
// future work): "The decisions made by the scheduler are crucial to the
// performance of multithreading architectures.  We are currently
// experimenting with other schedulers..."
//
// Compares OS-scheduler policies on single-program and multi-program
// workloads on the machine's widest one-chip configuration and its widest
// configuration (HT on -4-1 and HT on -8-2 on Paxville):
//   pinned-spread    — well-pinned OpenMP (the study's measurement mode)
//   naive-pack       — topology-blind placement (siblings first)
//   random-migrating — 2.6-era load-balancer churn (the migration effect
//                      the paper suspects behind its multi-program stalls)
//   ht-aware         — cores before siblings, siblings kept within program
//   symbiotic        — sample placements, lock the best (Snavely/Tullsen)
#include <iostream>
#include <memory>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassA;
  cli::FlagSet fs = bench::make_bench_flags(opt);
  cli::register_jobs_flag(fs, &opt.jobs);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header(
      "Extension: OS-scheduler policy study (paper section 5 future work)",
      opt);
  bench::print_host_provenance("ext_scheduler_study", opt);

  struct Workload {
    const char* label;
    std::vector<npb::Benchmark> benches;
  };
  const Workload workloads[] = {
      {"CG alone", {npb::Benchmark::kCG}},
      {"CG+FT", {npb::Benchmark::kCG, npb::Benchmark::kFT}},
      {"FT+FT", {npb::Benchmark::kFT, npb::Benchmark::kFT}},
  };
  const auto rows = harness::configs_for(opt.run.resolved_topology());
  const harness::StudyConfig* configs[] = {&bench::widest_config(rows, 1),
                                           &bench::widest_config(rows)};
  constexpr int kPolicies = 5;
  constexpr std::size_t kWorkloads = 3;

  const std::uint64_t seed = opt.run.trial_seed(0);

  // Scheduler runs are stateful (the policy object carries history), so the
  // engine cannot memoize them — instead the flat config x workload x policy
  // cell list fans out over for_each, each cell on its own pooled machine
  // with its own freshly built policy.
  const auto make_policy = [seed](int policy) {
    std::unique_ptr<sched::Scheduler> s;
    switch (policy) {
      case 0: s = sched::make_pinned_spread(); break;
      case 1: s = sched::make_naive_pack(); break;
      case 2: s = sched::make_random_migrating(0.5, seed); break;
      case 3: s = sched::make_ht_aware(); break;
      default: s = sched::make_symbiotic(1); break;
    }
    return s;
  };

  harness::ExperimentEngine engine(opt.jobs);
  const std::size_t n_cells = std::size(configs) * kWorkloads * kPolicies;
  std::vector<harness::ScheduledResult> results(n_cells);
  engine.for_each(n_cells, [&](std::size_t i) {
    const std::size_t cfg_i = i / (kWorkloads * kPolicies);
    const std::size_t w_i = (i / kPolicies) % kWorkloads;
    const int policy = static_cast<int>(i % kPolicies);
    const auto s = make_policy(policy);
    results[i] = engine.scheduled(workloads[w_i].benches, *configs[cfg_i], *s,
                                  opt.run, seed);
  });

  for (std::size_t cfg_i = 0; cfg_i < std::size(configs); ++cfg_i) {
    const std::string& cname = configs[cfg_i]->name;
    harness::Table table(std::string("completion time (Mcycles) on ") + cname,
                         {"pinned-spread", "naive-pack", "random-migrating",
                          "ht-aware", "symbiotic"});
    harness::Table migr(std::string("migrations performed on ") + cname,
                        {"pinned-spread", "naive-pack", "random-migrating",
                         "ht-aware", "symbiotic"});
    for (std::size_t w_i = 0; w_i < kWorkloads; ++w_i) {
      std::vector<double> walls, migs;
      for (int policy = 0; policy < kPolicies; ++policy) {
        const harness::ScheduledResult& r =
            results[(cfg_i * kWorkloads + w_i) * kPolicies +
                    static_cast<std::size_t>(policy)];
        double worst = 0;
        for (const auto& pr : r.program) worst = std::max(worst, pr.wall_cycles);
        walls.push_back(worst / 1e6);
        migs.push_back(static_cast<double>(r.migrations));
      }
      table.add_row(workloads[w_i].label, walls);
      migr.add_row(workloads[w_i].label, migs);
    }
    table.print(std::cout, 1);
    migr.print(std::cout, 0);
    if (opt.csv) table.print_csv(std::cout);
  }
  std::printf(
      "Expected shapes: random migration costs real time (cold caches +\n"
      "switch overhead), supporting the paper's hypothesis about its\n"
      "multi-program stalls; ht-aware placement matters most when the\n"
      "configuration has more contexts than threads in flight; the\n"
      "symbiotic sampler converges to the best placement it tried.\n");
  bench::print_engine_stats(engine);
  return 0;
}
