// bench/trace_overhead.cpp — simulator-engineering artifact: the cost of
// paxtrace.  Each NPB kernel runs on the Serial configuration three times
// per repeat:
//
//   ref    — reference path, no tracer (trace mode forces the reference
//            path, so this is the like-for-like baseline)
//   stacks — trace=stacks: the CPI stall accountant, no event recording
//   full   — trace=full: accountant + per-context ring-buffered events
//
// and reports warm host-time ratios (stacks/ref, full/ref) alongside the
// recorded-event volume.  The artifact doubles as an invariant check and
// exits non-zero when a traced run's virtual wall time diverges from the
// untraced baseline (tracing must not perturb virtual time) or when any
// context's CPI stack fails to sum exactly to the run's wall cycles.
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"

using namespace paxsim;

namespace {

struct Timing {
  double warm_sec = 0;  // best repeat after the first (cold when trials == 1)
  harness::RunResult run;
  trace::TraceReport trace;
};

Timing time_traced(sim::Machine& machine, npb::Benchmark bench,
                   const harness::StudyConfig& cfg,
                   const harness::RunOptions& opt, int repeats) {
  Timing t;
  for (int r = 0; r < repeats; ++r) {
    harness::TraceResult res =
        harness::run_traced(machine, bench, cfg, opt, opt.trial_seed(0));
    const double sec = res.run.host_sim_sec;
    if (r == 0 || sec < t.warm_sec) t.warm_sec = sec;
    if (r == 0) {
      t.run = std::move(res.run);
      t.trace = std::move(res.trace);
    }
  }
  return t;
}

Timing time_plain(sim::Machine& machine, npb::Benchmark bench,
                  const harness::StudyConfig& cfg,
                  const harness::RunOptions& opt, int repeats) {
  Timing t;
  for (int r = 0; r < repeats; ++r) {
    harness::RunResult res =
        harness::run_single(machine, bench, cfg, opt, opt.trial_seed(0));
    const double sec = res.host_sim_sec;
    if (r == 0 || sec < t.warm_sec) t.warm_sec = sec;
    if (r == 0) t.run = std::move(res);
  }
  return t;
}

bool stacks_sum_to_wall(const trace::TraceReport& t, std::string& why) {
  for (std::size_t i = 0; i < t.contexts.size(); ++i) {
    const trace::ContextStack& c = t.contexts[i];
    if (!c.active) continue;
    if (c.stack.sum() != t.wall_cycles) {
      why = "cpu" + std::to_string(i) + " stack sums to " +
            std::to_string(c.stack.sum()) + ", wall is " +
            std::to_string(t.wall_cycles);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassS;  // accountant cost, not the model
  opt.run.verify = false;
  if (!bench::parse_args(argc, argv, opt)) return 1;
  bench::print_study_header("trace overhead: tracer vs reference path", opt);
  bench::print_host_provenance("trace_overhead", opt);

  const harness::StudyConfig& cfg = harness::serial_config();
  const int repeats = opt.run.trials < 1 ? 1 : opt.run.trials;

  // The baseline must walk the same reference path the tracer forces.
  harness::RunOptions ref_run = opt.run;
  sim::MachineParams ref_params = ref_run.machine_params();
  ref_params.fast_path = false;
  harness::RunOptions stacks_run = opt.run;
  stacks_run.trace_mode = sim::TraceMode::kStacks;
  harness::RunOptions full_run = opt.run;
  full_run.trace_mode = sim::TraceMode::kFull;

  sim::Machine ref_machine(ref_params);
  sim::Machine stacks_machine(stacks_run.machine_params());
  sim::Machine full_machine(full_run.machine_params());

  const std::string cls = std::string(npb::class_name(opt.run.cls));
  std::printf("%-4s %10s %10s %10s %9s %9s %10s\n", "", "ref warm",
              "stacks", "full", "stk ovh", "full ovh", "events");

  bool failed = false;
  for (const npb::Benchmark bench : npb::kAllBenchmarks) {
    const Timing ref = time_plain(ref_machine, bench, cfg, ref_run, repeats);
    const Timing stk =
        time_traced(stacks_machine, bench, cfg, stacks_run, repeats);
    const Timing ful =
        time_traced(full_machine, bench, cfg, full_run, repeats);
    const std::string name = std::string(npb::benchmark_name(bench));

    if (stk.run.wall_cycles != ref.run.wall_cycles ||
        ful.run.wall_cycles != ref.run.wall_cycles) {
      std::fprintf(stderr,
                   "FAIL: %s traced wall time diverged from the untraced "
                   "reference run\n",
                   name.c_str());
      failed = true;
      continue;
    }
    std::string why;
    if (!stacks_sum_to_wall(stk.trace, why) ||
        !stacks_sum_to_wall(ful.trace, why)) {
      std::fprintf(stderr, "FAIL: %s CPI stack != wall: %s\n", name.c_str(),
                   why.c_str());
      failed = true;
      continue;
    }

    const double stk_ovh = stk.warm_sec / ref.warm_sec;
    const double ful_ovh = ful.warm_sec / ref.warm_sec;
    std::printf("%-4s %9.3fs %9.3fs %9.3fs %8.2fx %8.2fx %10llu\n",
                name.c_str(), ref.warm_sec, stk.warm_sec, ful.warm_sec,
                stk_ovh, ful_ovh,
                static_cast<unsigned long long>(ful.trace.events_recorded));
    // One machine-readable line per kernel for CI trend tracking.
    std::printf(
        "{\"artifact\":\"trace_overhead\",\"bench\":\"%s\",\"class\":\"%s\","
        "\"ref_warm_sec\":%.4f,\"stacks_warm_sec\":%.4f,"
        "\"full_warm_sec\":%.4f,\"stacks_overhead\":%.3f,"
        "\"full_overhead\":%.3f,\"events_recorded\":%llu,"
        "\"events_dropped\":%llu}\n",
        name.c_str(), cls.c_str(), ref.warm_sec, stk.warm_sec, ful.warm_sec,
        stk_ovh, ful_ovh,
        static_cast<unsigned long long>(ful.trace.events_recorded),
        static_cast<unsigned long long>(ful.trace.events_dropped));
  }
  return failed ? 1 : 0;
}
