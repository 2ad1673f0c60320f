// bench/hotpath_throughput.cpp — simulator-engineering artifact: measures
// the inner-loop overhaul (inlined L1/DTLB fast path, batched counters,
// heap scheduling) rather than the modeled machine.  Each NPB kernel runs
// on the Serial configuration twice per machine flavour:
//
//   fast      — MachineParams::fast_path = true (the default build)
//   reference — fast_path = false, every access through the slow path
//   checked   — check_mode = full: the reference path with the src/check
//               analysis sink attached (race detection + invariant audits);
//               the "check_overhead" figure is checked-vs-reference warm
//               time, i.e. the cost of the analyses themselves on top of
//               the slow path they require
//
// with per-flavour cold (first run, cold host caches) and warm (best of
// the remaining --trials repeats) timings of the simulation loop proper
// (RunResult::host_sim_sec — kernel setup and verification are flavour-
// invariant and excluded).  Throughput is reported as simulated events per
// host second, where "events" is the sum of the high-frequency counters the
// fast path services: instructions, L1D references, DTLB references and
// trace-cache references.  The two flavours' counter tables are
// cross-checked for exact equality — this artifact doubles as a
// differential test and exits non-zero on mismatch.
//
// The default --scale=16 machine shrinks the caches to 1/16 capacity, so a
// large share of accesses genuinely miss L1 and both paths converge on the
// same miss-handling code; --scale=1 measures the full-fidelity machine the
// fast path is designed for, where L1/DTLB hits dominate.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

namespace {

std::uint64_t event_count(const perf::CounterSet& c) {
  using perf::Event;
  return c.get(Event::kInstructions) + c.get(Event::kL1dReferences) +
         c.get(Event::kDtlbReferences) + c.get(Event::kTraceCacheReferences);
}

struct Timing {
  double cold_sec = 0;
  double warm_sec = 0;  // best repeat after the first (cold when trials == 1)
  harness::RunResult result;
};

Timing time_runs(sim::Machine& machine, npb::Benchmark bench,
                 const harness::StudyConfig& cfg,
                 const harness::RunOptions& opt, int repeats) {
  Timing t;
  for (int r = 0; r < repeats; ++r) {
    harness::RunResult res =
        harness::run_single(machine, bench, cfg, opt, opt.trial_seed(0));
    const double sec = res.host_sim_sec;
    if (r == 0) {
      t.cold_sec = sec;
      t.warm_sec = sec;
      t.result = std::move(res);
    } else if (sec < t.warm_sec || r == 1) {
      t.warm_sec = sec;
    }
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassS;  // inner-loop cost, not the model
  opt.run.verify = false;
  std::string only;  // --bench=NAME restricts to one kernel (profiling, CI)
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--bench=", 0) == 0) {
      only = std::string(argv[i] + 8);
      for (int j = i + 1; j < argc; ++j) argv[j - 1] = argv[j];
      --argc;
      break;
    }
  }
  if (!bench::parse_args(argc, argv, opt)) return 1;
  bench::print_study_header("hot-path throughput: fast vs reference path",
                            opt);
  bench::print_host_provenance("hotpath_throughput", opt);

  const harness::StudyConfig& cfg = harness::serial_config();
  const int repeats = opt.run.trials < 1 ? 1 : opt.run.trials;

  sim::MachineParams fast_params = opt.run.machine_params();
  fast_params.fast_path = true;
  sim::MachineParams ref_params = opt.run.machine_params();
  ref_params.fast_path = false;
  harness::RunOptions check_run = opt.run;
  check_run.check_mode = sim::CheckMode::kFull;
  sim::MachineParams check_params = check_run.machine_params();
  sim::Machine fast_machine(fast_params);
  sim::Machine ref_machine(ref_params);
  sim::Machine check_machine(check_params);

  const std::string cls = std::string(npb::class_name(opt.run.cls));
  std::printf("%-4s %12s %10s %10s %10s %10s %8s %8s\n", "", "events",
              "fast cold", "fast warm", "ref warm", "chk warm", "speedup",
              "chk ovh");

  bool mismatch = false;
  for (const npb::Benchmark bench : npb::kAllBenchmarks) {
    if (!only.empty() && std::string(npb::benchmark_name(bench)) != only) {
      continue;
    }
    const Timing fast =
        time_runs(fast_machine, bench, cfg, opt.run, repeats);
    const Timing ref = time_runs(ref_machine, bench, cfg, opt.run, repeats);
    const Timing chk =
        time_runs(check_machine, bench, cfg, check_run, repeats);

    // The analyses are pure observers on the reference path, so all three
    // flavours must agree on every counter and on virtual wall time.
    if (fast.result.counters != ref.result.counters ||
        fast.result.wall_cycles != ref.result.wall_cycles ||
        chk.result.counters != ref.result.counters ||
        chk.result.wall_cycles != ref.result.wall_cycles) {
      std::fprintf(stderr,
                   "FAIL: %s diverged between fast/reference/checked paths\n",
                   std::string(npb::benchmark_name(bench)).c_str());
      mismatch = true;
      continue;
    }
    if (!chk.result.check.clean()) {
      std::fprintf(stderr, "FAIL: %s not clean under --check=full\n",
                   std::string(npb::benchmark_name(bench)).c_str());
      mismatch = true;
      continue;
    }

    const std::uint64_t events = event_count(fast.result.counters);
    const double fast_eps = static_cast<double>(events) / fast.warm_sec;
    const double ref_eps = static_cast<double>(events) / ref.warm_sec;
    const double chk_eps = static_cast<double>(events) / chk.warm_sec;
    const double speedup = ref.warm_sec / fast.warm_sec;
    const double check_overhead = chk.warm_sec / ref.warm_sec;
    const std::string name = std::string(npb::benchmark_name(bench));
    std::printf("%-4s %12llu %9.3fs %9.3fs %9.3fs %9.3fs %7.2fx %7.2fx\n",
                name.c_str(), static_cast<unsigned long long>(events),
                fast.cold_sec, fast.warm_sec, ref.warm_sec, chk.warm_sec,
                speedup, check_overhead);
    // One machine-readable line per kernel for CI trend tracking.
    std::printf(
        "{\"artifact\":\"hotpath_throughput\",\"bench\":\"%s\","
        "\"class\":\"%s\",\"events\":%llu,"
        "\"fast_cold_sec\":%.4f,\"fast_warm_sec\":%.4f,"
        "\"ref_cold_sec\":%.4f,\"ref_warm_sec\":%.4f,"
        "\"check_cold_sec\":%.4f,\"check_warm_sec\":%.4f,"
        "\"fast_events_per_sec\":%.0f,\"ref_events_per_sec\":%.0f,"
        "\"check_events_per_sec\":%.0f,"
        "\"speedup\":%.3f,\"check_overhead\":%.3f}\n",
        name.c_str(), cls.c_str(), static_cast<unsigned long long>(events),
        fast.cold_sec, fast.warm_sec, ref.cold_sec, ref.warm_sec,
        chk.cold_sec, chk.warm_sec, fast_eps, ref_eps, chk_eps, speedup,
        check_overhead);
  }
  return mismatch ? 1 : 0;
}
