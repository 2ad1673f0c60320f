// bench/engine_throughput.cpp — harness-engineering artifact: measures the
// ExperimentEngine itself rather than the simulated machine.  Times one
// Figure-3-shaped plan (every study benchmark on every Table-1
// configuration, serial baselines included) three ways:
//
//   cold, 1 job      — the pre-engine behaviour: every cell simulated
//   cold, --jobs=N   — the same cells fanned out over N host workers
//   warm re-run      — the whole plan answered from the memo cache
//
// and reports trials/sec, the parallel speedup, the warm-pass hit rate and
// the machine-pool reuse counts as a single JSON object (plus a readable
// summary), so harness regressions are scriptable to catch.
//
// paxlint: allow-file(wallclock) -- this bench's whole point is timing the harness on the host; nothing here feeds simulated state
#include <chrono>
#include <cstdio>

#include "bench/bench_common.hpp"

using namespace paxsim;

namespace {

struct Pass {
  double seconds = 0;
  std::uint64_t cells = 0;  // simulated + cached cells the pass answered
  harness::EngineStats stats;
};

Pass run_pass(harness::ExperimentEngine& engine,
              const harness::ExperimentPlan& plan) {
  const harness::EngineStats before = engine.stats();
  const auto t0 = std::chrono::steady_clock::now();
  (void)engine.run(plan);
  const auto t1 = std::chrono::steady_clock::now();
  Pass p;
  p.seconds = std::chrono::duration<double>(t1 - t0).count();
  p.stats = engine.stats();
  p.cells = (p.stats.cache_hits - before.cache_hits) +
            (p.stats.cache_misses - before.cache_misses);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassS;  // engine overhead, not the sim
  opt.jobs = 4;
  if (!bench::parse_args(argc, argv, opt)) return 1;
  bench::print_study_header("engine throughput: pooling, memoization, --jobs",
                            opt);
  bench::print_host_provenance("engine_throughput", opt);

  const auto configs = harness::configs_for(opt.run.resolved_topology());
  const auto plan = harness::ExperimentPlan(opt.run, configs)
                        .add_benchmarks(bench::study_benchmarks())
                        .with_serial_baselines()
                        .trials(opt.run.trials);

  harness::ExperimentEngine serial_engine(1);
  const Pass cold1 = run_pass(serial_engine, plan);

  harness::ExperimentEngine parallel_engine(opt.jobs);
  const Pass coldN = run_pass(parallel_engine, plan);

  // Same plan on the warm engine: every cell is a cache hit.
  const Pass warm = run_pass(parallel_engine, plan);

  const double speedup = coldN.seconds > 0 ? cold1.seconds / coldN.seconds : 0;
  const double warm_hit_rate =
      warm.cells > 0
          ? static_cast<double>(warm.stats.cache_hits -
                                coldN.stats.cache_hits) /
                static_cast<double>(warm.cells)
          : 0;

  std::printf("cold 1 job : %6.2f s, %5.1f cells/s (%llu cells)\n",
              cold1.seconds, static_cast<double>(cold1.cells) / cold1.seconds,
              static_cast<unsigned long long>(cold1.cells));
  std::printf("cold %d jobs: %6.2f s, %5.1f cells/s, speedup %.2fx\n",
              opt.jobs, coldN.seconds,
              static_cast<double>(coldN.cells) / coldN.seconds, speedup);
  std::printf("warm re-run: %6.2f s, hit rate %.1f%%\n", warm.seconds,
              100.0 * warm_hit_rate);
  std::printf("machine pool: %llu built for %llu acquisitions (%llu reuses)\n",
              static_cast<unsigned long long>(warm.stats.machines_created),
              static_cast<unsigned long long>(warm.stats.machines_acquired),
              static_cast<unsigned long long>(warm.stats.machines_reused()));

  // One machine-readable line for CI trend tracking.
  std::printf(
      "{\"artifact\":\"engine_throughput\",\"class\":\"%s\","
      "\"trials\":%d,\"jobs\":%d,\"cells\":%llu,"
      "\"cold_1job_sec\":%.4f,\"cold_njob_sec\":%.4f,"
      "\"parallel_speedup\":%.3f,\"warm_sec\":%.4f,"
      "\"warm_hit_rate\":%.4f,"
      "\"machines_created\":%llu,\"machines_acquired\":%llu}\n",
      std::string(npb::class_name(opt.run.cls)).c_str(), opt.run.trials,
      opt.jobs, static_cast<unsigned long long>(cold1.cells), cold1.seconds,
      coldN.seconds, speedup, warm.seconds, warm_hit_rate,
      static_cast<unsigned long long>(warm.stats.machines_created),
      static_cast<unsigned long long>(warm.stats.machines_acquired));
  return 0;
}
