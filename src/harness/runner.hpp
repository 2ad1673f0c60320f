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
//                     stacks + event recording, RunOptions::trace_mode);
//   * run_profiled_serial — a serial run with a model::Profiler attached;
//   * run_timeline  — run_single sampled after every kernel step.
//
// All of them share one step path: build one program per workload, then
// always step the program furthest behind in virtual time.  Every runner
// takes the sim::Machine to run on (the MachinePool recycling path; the
// machine is reset() to a cold state on entry, so results are bit-identical
// to a fresh construction) — except run_profiled_serial, which builds its
// own profiling machine.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/report.hpp"
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

/// Knobs shared by every experiment.
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
  /// Opt-in runtime analyses (race detection / invariant auditing).  Any
  /// mode but kOff routes the machine through the reference path and
  /// attaches a check::Checker for the duration of each run.
  sim::CheckMode check_mode = sim::CheckMode::kOff;
  /// Opt-in execution tracing (CPI stall stacks / event recording).  Any
  /// mode but kOff routes the machine through the reference path, enables
  /// the xomp region-boundary flushes and (in run_traced) attaches a
  /// trace::Tracer.  Mutually exclusive with check_mode in a traced run:
  /// the machine carries one sink.
  sim::TraceMode trace_mode = sim::TraceMode::kOff;
  /// The machine to simulate (sim/topology.hpp).  Null means the calibrated
  /// default Paxville — bit-identical to the pre-topology harness
  /// (test-enforced).  Set from a preset name or a JSON description via the
  /// CLI's --machine flag; shared because every cell of a plan runs on it.
  std::shared_ptr<const sim::Topology> topology;

  [[nodiscard]] sim::MachineParams machine_params() const {
    sim::MachineParams base{};
    if (topology != nullptr) base.set_topology(topology);
    sim::MachineParams p = base.scaled(machine_scale);
    p.check_mode = check_mode;
    p.trace_mode = trace_mode;
    return p;
  }
  /// The machine's shape, unscaled: MachineParams::resolved_topology(), so
  /// a null topology means the calibrated default there and only there.
  [[nodiscard]] sim::Topology resolved_topology() const {
    sim::MachineParams p{};
    p.set_topology(topology);
    return p.resolved_topology();
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
  /// Analysis findings when opt.check_mode != kOff (default-constructed —
  /// trivially clean — otherwise).  For pair and scheduled runs the
  /// analyses observe the whole machine, so every program carries the same
  /// machine-wide report.
  check::CheckReport check;
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
  trace::TraceReport trace;  ///< stacks/regions/events per opt.trace_mode
};

/// run_single with a trace::Tracer attached for the duration of the run.
/// @p machine must have been built from opt.machine_params() with
/// opt.trace_mode != kOff and opt.check_mode == kOff (the machine carries
/// one sink).  The virtual-time trajectory is identical to an untraced
/// reference-path run; every context stack in the report sums exactly to
/// run.wall_cycles.
TraceResult run_traced(sim::Machine& machine, npb::Benchmark bench,
                       const StudyConfig& cfg, const RunOptions& opt,
                       std::uint64_t seed);

/// Outcome of a profiled serial run — paxmodel's input.
struct ProfiledRun {
  RunResult result;              ///< the serial run itself (measured)
  model::KernelProfile profile;  ///< reuse/sharing summary, anchor filled
};

/// Runs @p bench once on the Serial configuration with
/// MachineParams::profile enabled and a model::Profiler attached, then
/// fills profile.anchor from the run's own counters.  The run routes
/// through the reference path but its counters and wall time are
/// bit-identical to an unprofiled serial run (test-enforced).  Throws
/// std::invalid_argument when opt.check_mode != kOff (the machine carries
/// one sink).
ProfiledRun run_profiled_serial(npb::Benchmark bench, const RunOptions& opt,
                                std::uint64_t seed);

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
