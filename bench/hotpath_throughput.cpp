// bench/hotpath_throughput.cpp — simulator-engineering artifact: the host
// cost of each way the simulator can run a kernel.  Each NPB kernel runs on
// the Serial configuration on five machines:
//
//   fast      — MachineParams::fast_path = true (the default build)
//   reference — fast_path = false, every access through the slow path
//   checked   — check_mode = full: the reference path plus the src/check
//               analysis sink (race detection + invariant audits)
//   stacks    — trace_mode = stacks: paxtrace's CPI stall accountant
//   full      — trace_mode = full: the accountant plus ring-buffered events
//
// timing the simulation loop proper (RunResult::host_sim_sec: setup and
// verification are excluded) cold (first run) and warm (best of the
// remaining --trials repeats).  "speedup" is reference over fast warm time;
// each "*_overhead" is a path's warm time over the reference path's, the
// cost of the analyses or the tracer on top of the slow path they require.
// Throughput is simulated events per host second, "events" being the
// counters the fast path services: instructions plus L1D, DTLB and
// trace-cache references.
//
// It doubles as a differential test, exiting non-zero when any machine's
// counters or virtual wall time diverge from the reference path's (the
// analyses and the tracer are pure observers), when a kernel is not clean
// under --check=full, or when an active context's CPI stack does not sum
// exactly to the wall.
//
// The default --scale=16 shrinks the caches to 1/16, so many accesses miss
// L1 and both paths converge on the same miss-handling code; --scale=1 is
// the full-fidelity machine the fast path is designed for.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

namespace {

std::uint64_t event_count(const perf::CounterSet& c) {
  using perf::Event;
  return c.get(Event::kInstructions) + c.get(Event::kL1dReferences) +
         c.get(Event::kDtlbReferences) + c.get(Event::kTraceCacheReferences);
}

/// One way of running a kernel: the options and the machine built from them.
struct Path {
  harness::RunOptions run;
  sim::Machine machine;

  Path(const harness::RunOptions& r, const sim::MachineParams& params)
      : run(r), machine(params) {}
  explicit Path(const harness::RunOptions& r) : Path(r, r.machine_params()) {}
};

struct Timing {
  double cold_sec = 0;
  double warm_sec = 0;  // best repeat after the first (cold when trials == 1)
  harness::TraceResult first;  // the cold run; trace empty when untraced
};

Timing time_runs(Path& path, npb::Benchmark bench, int repeats) {
  const harness::StudyConfig& cfg = harness::serial_config();
  const harness::RunOptions& opt = path.run;
  Timing t;
  for (int r = 0; r < repeats; ++r) {
    harness::TraceResult res;
    if (opt.trace_mode == sim::TraceMode::kOff) {
      res.run = harness::run_single(path.machine, bench, cfg, opt,
                                    opt.trial_seed(0));
    } else {
      res = harness::run_traced(path.machine, bench, cfg, opt,
                                opt.trial_seed(0));
    }
    const double sec = res.run.host_sim_sec;
    if (r == 0) {
      t.cold_sec = sec;
      t.warm_sec = sec;
      t.first = std::move(res);
    } else if (sec < t.warm_sec || r == 1) {
      t.warm_sec = sec;
    }
  }
  return t;
}

/// Empty when every active context's CPI stack sums exactly to the wall;
/// otherwise the first offending context.
std::string stack_mismatch(const trace::TraceReport& t) {
  for (std::size_t i = 0; i < t.contexts.size(); ++i) {
    const trace::ContextStack& c = t.contexts[i];
    if (c.active && c.stack.sum() != t.wall_cycles) {
      return "cpu" + std::to_string(i) + " stack sums to " +
             std::to_string(c.stack.sum()) + ", wall is " +
             std::to_string(t.wall_cycles);
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassS;  // inner-loop cost, not the model
  opt.run.verify = false;
  std::optional<npb::Benchmark> only;
  // The cell flags without --csv: every row is already one JSON line.
  cli::FlagSet fs;
  cli::register_cell_flags(fs, &opt.run);
  bench::add_trials_flag(fs, opt);
  {
    cli::FlagSpec s;
    s.name = "bench";
    s.value_hint = "NAME";
    s.help = "time one kernel only (profiling, CI)";
    s.apply = [&only](const std::string& v) -> std::string {
      npb::Benchmark b;
      if (!npb::parse_benchmark(v, b)) return "bad --bench '" + v + "'";
      only = b;
      return {};
    };
    fs.add(std::move(s));
  }
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header(
      "hot-path throughput: fast vs reference, checked and traced paths", opt);
  bench::print_host_provenance("hotpath_throughput", opt);

  const int repeats = opt.run.trials < 1 ? 1 : opt.run.trials;
  sim::MachineParams fast_params = opt.run.machine_params();
  fast_params.fast_path = true;
  sim::MachineParams ref_params = opt.run.machine_params();
  ref_params.fast_path = false;
  harness::RunOptions check_run = opt.run;
  check_run.check_mode = sim::CheckMode::kFull;
  harness::RunOptions stacks_run = opt.run;
  stacks_run.trace_mode = sim::TraceMode::kStacks;
  harness::RunOptions full_run = opt.run;
  full_run.trace_mode = sim::TraceMode::kFull;
  Path fast_path(opt.run, fast_params);
  Path ref_path(opt.run, ref_params);
  Path check_path(check_run);
  Path stacks_path(stacks_run);
  Path full_path(full_run);

  const std::string cls = std::string(npb::class_name(opt.run.cls));
  std::printf("%-4s %12s %10s %10s %10s %10s %10s %10s %8s %8s %8s %8s\n", "",
              "events", "fast cold", "fast warm", "ref warm", "chk warm",
              "stk warm", "full warm", "speedup", "chk ovh", "stk ovh",
              "full ovh");

  std::vector<npb::Benchmark> benches(std::begin(npb::kAllBenchmarks),
                                      std::end(npb::kAllBenchmarks));
  if (only) benches = {*only};
  bool failed = false;
  for (const npb::Benchmark bench : benches) {
    const std::string name = std::string(npb::benchmark_name(bench));
    const Timing fast = time_runs(fast_path, bench, repeats);
    const Timing ref = time_runs(ref_path, bench, repeats);
    const Timing chk = time_runs(check_path, bench, repeats);
    const Timing stk = time_runs(stacks_path, bench, repeats);
    const Timing ful = time_runs(full_path, bench, repeats);

    // The analyses and the tracer are pure observers on the reference
    // path, so every machine must agree on every counter and on virtual
    // wall time.
    const harness::RunResult& want = ref.first.run;
    bool diverged = false;
    for (const Timing* t : {&fast, &chk, &stk, &ful}) {
      diverged = diverged || t->first.run.counters != want.counters ||
                 t->first.run.wall_cycles != want.wall_cycles;
    }
    if (diverged) {
      std::fprintf(stderr,
                   "FAIL: %s diverged between the fast, reference, checked "
                   "and traced paths\n",
                   name.c_str());
      failed = true;
      continue;
    }
    if (!chk.first.run.check.clean()) {
      std::fprintf(stderr, "FAIL: %s not clean under --check=full\n",
                   name.c_str());
      failed = true;
      continue;
    }
    std::string why = stack_mismatch(stk.first.trace);
    if (why.empty()) why = stack_mismatch(ful.first.trace);
    if (!why.empty()) {
      std::fprintf(stderr, "FAIL: %s CPI stack != wall: %s\n", name.c_str(),
                   why.c_str());
      failed = true;
      continue;
    }

    const std::uint64_t events = event_count(want.counters);
    const double speedup = ref.warm_sec / fast.warm_sec;
    const double check_overhead = chk.warm_sec / ref.warm_sec;
    const double stacks_overhead = stk.warm_sec / ref.warm_sec;
    const double full_overhead = ful.warm_sec / ref.warm_sec;
    std::printf(
        "%-4s %12llu %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs %7.2fx %7.2fx "
        "%7.2fx %7.2fx\n",
        name.c_str(), static_cast<unsigned long long>(events), fast.cold_sec,
        fast.warm_sec, ref.warm_sec, chk.warm_sec, stk.warm_sec, ful.warm_sec,
        speedup, check_overhead, stacks_overhead, full_overhead);
    // One machine-readable line per kernel for CI trend tracking.
    const auto per_sec = [events](const Timing& t) {
      return static_cast<double>(events) / t.warm_sec;
    };
    report::Json j(std::cout);
    j.object();
    j.field("artifact", "hotpath_throughput");
    j.field("bench", name);
    j.field("class", cls);
    j.field("events", events);
    j.field("fast_cold_sec", fast.cold_sec);
    j.field("fast_warm_sec", fast.warm_sec);
    j.field("ref_cold_sec", ref.cold_sec);
    j.field("ref_warm_sec", ref.warm_sec);
    j.field("check_cold_sec", chk.cold_sec);
    j.field("check_warm_sec", chk.warm_sec);
    j.field("fast_events_per_sec", per_sec(fast));
    j.field("ref_events_per_sec", per_sec(ref));
    j.field("check_events_per_sec", per_sec(chk));
    j.field("speedup", speedup);
    j.field("check_overhead", check_overhead);
    j.field("stacks_warm_sec", stk.warm_sec);
    j.field("full_warm_sec", ful.warm_sec);
    j.field("stacks_overhead", stacks_overhead);
    j.field("full_overhead", full_overhead);
    j.field("events_recorded", ful.first.trace.events_recorded);
    j.field("events_dropped", ful.first.trace.events_dropped);
    j.finish();
  }
  return failed ? 1 : 0;
}
