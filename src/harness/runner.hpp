// paxsim/harness/runner.hpp
//
// Experiment runners:
//   * run_single    — one benchmark on one Table-1 configuration (the
//                     Figure 2 / Figure 3 workhorse);
//   * run_pair      — two programs co-scheduled on one configuration with
//                     threads split evenly (Figure 4 / Figure 5), the
//                     programs interleaved in virtual time the way two
//                     processes share a real machine;
//   * run_scheduled — one or two programs under an OS-scheduler policy
//                     (src/sched) that places threads and may migrate them
//                     between kernel steps (the paper's future work);
//   * run_traced    — run_single with a trace::Tracer attached (CPI stall
//                     stacks + event recording, at the depth it is given);
//   * run_profiled_serial — run_serial with a model::Profiler attached;
//   * run_timeline  — run_single sampled after every kernel step.
//
// All of them share one step path: build one program per workload, then
// always step the program furthest behind in virtual time.  Every runner
// takes the sim::Machine to run on (the MachinePool recycling path; the
// machine is reset() to a cold state on entry, so results are bit-identical
// to a fresh construction).  An observer attaches to that machine, not to
// the options: run_traced's tracer, run_profiled_serial's profiler, or a
// check::Checker the caller constructs on the machine before calling any
// runner and reads after it returns.  An attached observer keeps the
// machine on the reference path until it detaches (sim/hooks.hpp), and a
// machine carries one observer at a time (Machine::set_trace_sink).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/config.hpp"
#include "model/profile.hpp"
#include "npb/kernel.hpp"
#include "perf/counters.hpp"
#include "perf/metrics.hpp"
#include "perf/timeline.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "trace/report.hpp"

namespace paxsim::harness {

/// Knobs shared by every experiment: they name a cell, and CellKey::from
/// projects each of them but the plan-level trials and base_seed.  The
/// observers (checker, tracer, profiler) are not knobs: each attaches to
/// the machine a run uses.
struct RunOptions {
  npb::ProblemClass cls = npb::ProblemClass::kClassB;
  /// Capacity scale factor applied to the machine (DESIGN.md: caches and
  /// problem classes shrink together; 16 is the study default the class
  /// tables are tuned for).
  double machine_scale = 16.0;
  int trials = 3;                    ///< paper used 10; 3 is the quick default
  std::uint64_t base_seed = npb::kDefaultSeed;
  bool verify = true;                ///< run numeric verification per trial
  /// Iteration grain handed to every Team (xomp::kDefaultGrain = 1 is the
  /// full-fidelity setting; larger grains change the interleaving, so
  /// grained runs are never comparable against grain-1 golden signatures).
  std::size_t grain = 1;
  /// Loop-schedule override (the paxtune schedule axis).  -1 leaves every
  /// parallel loop on the schedule its kernel passes (bit-identical to the
  /// pre-override harness); 0/1/2 force xomp::ScheduleKind
  /// static/dynamic/guided with chunk parameter sched_chunk on every loop
  /// via Team::set_schedule_override.  An override changes the interleaving
  /// — and with it every emergent contention number — so both fields are
  /// part of CellKey.
  int sched_kind = -1;
  std::size_t sched_chunk = 0;
  /// The machine to simulate (sim/topology.hpp), set from a preset name or
  /// a JSON description via the CLI's --machine flag; shared because every
  /// cell of a plan runs on it.  Null means the default machine: the
  /// calibrated Paxville, named "default", bit-identical to `--machine=
  /// paxville` (test-enforced) but keyed apart from it (CellKey::machine
  /// stays empty).
  std::shared_ptr<const sim::Topology> topology;

  /// The scaled machine a cell runs on, carrying resolved_topology().
  /// Observed and plain runs share it: an observer attaches to the
  /// machine, it does not shape it.
  [[nodiscard]] sim::MachineParams machine_params() const {
    sim::MachineParams base{};
    base.topology = resolved_topology();
    return base.scaled(machine_scale);
  }
  /// The machine's shape, unscaled: `*topology`, or the default machine.
  [[nodiscard]] sim::Topology resolved_topology() const {
    if (topology != nullptr) return *topology;
    sim::Topology t = sim::Topology::paxville();
    t.name = "default";
    return t;
  }
  [[nodiscard]] std::uint64_t trial_seed(int trial) const noexcept {
    return base_seed + static_cast<std::uint64_t>(trial) * 104729;
  }
};

/// The schedule-override names, indexed by RunOptions::sched_kind + 1
/// (xomp::ScheduleKind order after the kernel default).
inline constexpr std::array<std::string_view, 4> kSchedNames = {
    "default", "static", "dynamic", "guided"};

/// Parses a schedule-override name onto RunOptions::sched_kind.
inline bool parse_sched_name(std::string_view s, int* out) {
  for (std::size_t i = 0; i < kSchedNames.size(); ++i) {
    if (kSchedNames[i] == s) {
      *out = static_cast<int>(i) - 1;
      return true;
    }
  }
  return false;
}

/// Inverse of parse_sched_name (for reports and labels).
inline std::string_view sched_name(int sched_kind) {
  const bool overridden =
      sched_kind >= 0 && sched_kind + 1 < static_cast<int>(kSchedNames.size());
  return kSchedNames[overridden ? static_cast<std::size_t>(sched_kind) + 1 : 0];
}

/// Outcome of one program execution (one trial).
struct RunResult {
  double wall_cycles = 0;            ///< virtual completion time
  perf::CounterSet counters;         ///< raw PMU-event deltas
  perf::Metrics metrics;             ///< the Figure-2 bundle
  bool verified = false;             ///< numeric validation outcome
  /// Host seconds spent inside the simulation loop proper (kernel steps
  /// driving the machine), excluding program construction/setup and numeric
  /// verification.  Filled by run_single; the throughput artifacts use it so
  /// they measure the simulator inner loop, not workload setup.
  double host_sim_sec = 0;
};

/// Runs @p bench once on @p cfg (single-program) on @p machine, which is
/// reset() to a cold state on entry — the MachinePool recycling path.
/// @p machine must have been built from opt.machine_params() (same
/// geometry); results are bit-identical to running on a freshly
/// constructed machine.
RunResult run_single(sim::Machine& machine, npb::Benchmark bench,
                     const StudyConfig& cfg, const RunOptions& opt,
                     std::uint64_t seed);

/// Outcome of a co-scheduled pair.
struct PairResult {
  std::array<RunResult, 2> program;  ///< per-program results
};

/// Runs @p a and @p b co-scheduled on @p cfg on @p machine, threads split
/// evenly between the two programs (even list positions to program 0, odd
/// to program 1 — the spread the 2.6-era Linux balancer converges to).
PairResult run_pair(sim::Machine& machine, npb::Benchmark a, npb::Benchmark b,
                    const StudyConfig& cfg, const RunOptions& opt,
                    std::uint64_t seed);

/// Serial-baseline run of @p bench (run_single on the Serial config).
RunResult run_serial(sim::Machine& machine, npb::Benchmark bench,
                     const RunOptions& opt, std::uint64_t seed);

/// Outcome of a traced run: the ordinary result plus the trace report.
struct TraceResult {
  RunResult run;
  trace::TraceReport trace;  ///< stacks/regions/events at the run's depth
};

/// run_single with a trace::Tracer recording at @p depth attached for the
/// duration of the run.  Throws std::invalid_argument when @p depth is
/// kOff, and std::logic_error when @p machine already carries a sink.  The
/// virtual-time trajectory is identical to an untraced run; every context
/// stack in the report sums exactly to run.wall_cycles.
TraceResult run_traced(sim::Machine& machine, npb::Benchmark bench,
                       const StudyConfig& cfg, const RunOptions& opt,
                       sim::TraceMode depth, std::uint64_t seed);

/// Outcome of a profiled serial run — paxmodel's input.
struct ProfiledRun {
  RunResult result;              ///< the serial run itself (measured)
  model::KernelProfile profile;  ///< reuse/sharing summary, anchor filled
};

/// run_serial of @p bench on @p machine with a model::Profiler attached,
/// then fills profile.anchor from the run's own counters.  The run routes
/// through the reference path but its counters and wall time are
/// bit-identical to an unprofiled serial run (test-enforced).  Throws
/// std::logic_error when @p machine already carries a sink.
ProfiledRun run_profiled_serial(sim::Machine& machine, npb::Benchmark bench,
                                const RunOptions& opt, std::uint64_t seed);

/// Outcome of a scheduled (possibly multi-program) run.
struct ScheduledResult {
  std::vector<RunResult> program;  ///< per-program results
  int migrations = 0;              ///< migrations the policy performed
  std::string scheduler;           ///< policy name
};

/// Runs @p benches (one or two programs) co-scheduled on @p cfg under
/// @p policy on @p machine.  The policy is consulted for initial placement
/// and after every kernel step for rebalancing.  Thread counts are split
/// evenly between programs (all contexts to a single program).
ScheduledResult run_scheduled(sim::Machine& machine,
                              const std::vector<npb::Benchmark>& benches,
                              const StudyConfig& cfg, sched::Scheduler& policy,
                              const RunOptions& opt, std::uint64_t seed);

/// Per-step timeline of one run (the VTune sampling view).
struct TimelineResult {
  RunResult run;                  ///< whole-run counters and metrics
  perf::Timeline timeline;        ///< per-step counter deltas
  std::vector<double> step_wall;  ///< per-step wall-cycle deltas
};

/// run_single on @p machine with the counters flushed and sampled after
/// every kernel step.  Does not throw on verification failure; the caller
/// inspects result.run.verified.
TimelineResult run_timeline(sim::Machine& machine, npb::Benchmark bench,
                            const StudyConfig& cfg, const RunOptions& opt,
                            std::uint64_t seed);

}  // namespace paxsim::harness
