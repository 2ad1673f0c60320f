#include "harness/runner.hpp"

// paxlint: allow-file(wallclock) -- every steady_clock pair here measures host_sim_sec, the host-cost provenance field of run envelopes; simulated results read only Team::wall_time() (virtual cycles)

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "check/checker.hpp"
#include "trace/tracer.hpp"
#include "xomp/min_heap.hpp"
#include "xomp/team.hpp"

namespace paxsim::harness {
namespace {

/// Declares each core's SMT activity from the set of occupied contexts.
void apply_smt_activity(sim::Machine& machine,
                        const std::vector<sim::LogicalCpu>& occupied) {
  const auto& p = machine.params();
  for (int chip = 0; chip < p.chips; ++chip) {
    for (int core = 0; core < p.cores_per_chip; ++core) {
      int n = 0;
      for (const sim::LogicalCpu c : occupied) {
        if (c.chip == chip && c.core == core) ++n;
      }
      machine.core(chip, core).set_active_contexts(std::max(1, n));
    }
  }
}

/// One resident program: kernel + address space + counters + team.
struct Program {
  std::unique_ptr<npb::Kernel> kernel;
  std::unique_ptr<sim::AddressSpace> space;
  perf::CounterSet counters;
  std::unique_ptr<xomp::Team> team;
  int steps_done = 0;
  double finish_time = 0;

  [[nodiscard]] bool done() const {
    return steps_done >= kernel->total_steps();
  }
};

std::unique_ptr<Program> make_program(npb::Benchmark bench, int slot,
                                      std::vector<sim::LogicalCpu> cpus,
                                      sim::Machine& machine,
                                      const RunOptions& opt,
                                      std::uint64_t seed) {
  auto prog = std::make_unique<Program>();
  prog->kernel = npb::make_kernel(bench);
  prog->space = std::make_unique<sim::AddressSpace>(slot);
  prog->kernel->setup(*prog->space, npb::ProblemConfig{opt.cls, seed});
  prog->team = std::make_unique<xomp::Team>(machine, std::move(cpus),
                                            &prog->counters, *prog->space);
  prog->team->set_grain(opt.grain);
  if (opt.sched_kind >= 0) {
    prog->team->set_schedule_override(xomp::Schedule{
        static_cast<xomp::ScheduleKind>(opt.sched_kind), opt.sched_chunk});
  }
  return prog;
}

RunResult finish_result(Program& prog, bool verify) {
  prog.team->flush();
  RunResult r;
  r.wall_cycles = prog.finish_time;
  r.counters = prog.counters;
  r.metrics = perf::derive_metrics(r.counters);
  r.verified = !verify || prog.kernel->verify();
  return r;
}

}  // namespace

RunResult run_single(sim::Machine& machine, npb::Benchmark bench,
                     const StudyConfig& cfg, const RunOptions& opt,
                     std::uint64_t seed) {
  machine.reset();
  // The checker must attach before the Team exists: the Team's constructor
  // reports its runtime-internal lines and the initial clock sync.
  std::optional<check::Checker> checker;
  if (machine.params().check_mode != sim::CheckMode::kOff) {
    checker.emplace(machine, machine.params().check_mode);
  }
  auto prog = make_program(bench, 0, cfg.cpus, machine, opt, seed);
  apply_smt_activity(machine, cfg.cpus);
  const auto host_t0 = std::chrono::steady_clock::now();
  while (!prog->done()) {
    prog->kernel->step(*prog->team, prog->steps_done);
    ++prog->steps_done;
  }
  prog->finish_time = prog->team->wall_time();
  const auto host_t1 = std::chrono::steady_clock::now();
  RunResult r = finish_result(*prog, opt.verify);
  if (checker) r.check = checker->finish();
  r.host_sim_sec = std::chrono::duration<double>(host_t1 - host_t0).count();
  if (opt.verify && !r.verified) {
    throw std::runtime_error(std::string("verification failed: ") +
                             std::string(prog->kernel->name()) + " on " +
                             std::string(cfg.name));
  }
  return r;
}

RunResult run_serial(sim::Machine& machine, npb::Benchmark bench,
                     const RunOptions& opt, std::uint64_t seed) {
  return run_single(machine, bench, serial_config(), opt, seed);
}

TraceResult run_traced(sim::Machine& machine, npb::Benchmark bench,
                       const StudyConfig& cfg, const RunOptions& opt,
                       std::uint64_t seed) {
  if (machine.params().trace_mode == sim::TraceMode::kOff) {
    throw std::invalid_argument(
        "run_traced: machine must be built with trace_mode != off "
        "(opt.machine_params() with opt.trace_mode set)");
  }
  if (machine.params().check_mode != sim::CheckMode::kOff) {
    throw std::invalid_argument(
        "run_traced: trace and check modes are mutually exclusive (the "
        "machine carries one sink)");
  }
  machine.reset();
  // Like the checker, the tracer must attach before the Team exists so it
  // observes the team-creation events and the initial clock sync.
  trace::Tracer tracer(machine, machine.params().trace_mode);
  auto prog = make_program(bench, 0, cfg.cpus, machine, opt, seed);
  apply_smt_activity(machine, cfg.cpus);
  const auto host_t0 = std::chrono::steady_clock::now();
  while (!prog->done()) {
    prog->kernel->step(*prog->team, prog->steps_done);
    ++prog->steps_done;
  }
  prog->finish_time = prog->team->wall_time();
  const auto host_t1 = std::chrono::steady_clock::now();

  TraceResult out;
  // finish_result's flush drives the final on_flush while the tracer is
  // still attached, so the last region's deltas land in the stacks.
  out.run = finish_result(*prog, opt.verify);
  out.run.host_sim_sec =
      std::chrono::duration<double>(host_t1 - host_t0).count();
  out.trace = tracer.finish(out.run.wall_cycles);
  if (opt.verify && !out.run.verified) {
    throw std::runtime_error(std::string("verification failed: ") +
                             std::string(prog->kernel->name()) + " on traced " +
                             std::string(cfg.name));
  }
  return out;
}

ProfiledRun run_profiled_serial(npb::Benchmark bench, const RunOptions& opt,
                                std::uint64_t seed) {
  sim::MachineParams params = opt.machine_params();
  params.profile = true;
  sim::Machine machine(params);
  machine.reset();
  // Like the checker, the profiler must attach before the Team exists: the
  // Team's constructor reports its runtime-internal line ranges.
  model::Profiler profiler(machine);
  const StudyConfig& cfg = serial_config();
  auto prog = make_program(bench, 0, cfg.cpus, machine, opt, seed);
  apply_smt_activity(machine, cfg.cpus);
  const auto host_t0 = std::chrono::steady_clock::now();
  while (!prog->done()) {
    prog->kernel->step(*prog->team, prog->steps_done);
    ++prog->steps_done;
  }
  prog->finish_time = prog->team->wall_time();
  const auto host_t1 = std::chrono::steady_clock::now();

  ProfiledRun out;
  out.result = finish_result(*prog, opt.verify);
  out.result.host_sim_sec =
      std::chrono::duration<double>(host_t1 - host_t0).count();
  if (opt.verify && !out.result.verified) {
    throw std::runtime_error(std::string("verification failed: ") +
                             std::string(prog->kernel->name()) +
                             " on profiled Serial");
  }
  out.profile = profiler.finish();

  // The profiling run doubles as the model's per-kernel calibration point.
  using perf::Event;
  const perf::CounterSet& c = out.result.counters;
  auto& a = out.profile.anchor;
  a.valid = true;
  a.wall_cycles = out.result.wall_cycles;
  a.cycles = static_cast<double>(c.get(Event::kCycles));
  a.instructions = static_cast<double>(c.get(Event::kInstructions));
  a.l1d_refs = static_cast<double>(c.get(Event::kL1dReferences));
  a.l1d_misses = static_cast<double>(c.get(Event::kL1dMisses));
  a.l2_refs = static_cast<double>(c.get(Event::kL2References));
  a.l2_misses = static_cast<double>(c.get(Event::kL2Misses));
  a.tc_refs = static_cast<double>(c.get(Event::kTraceCacheReferences));
  a.tc_misses = static_cast<double>(c.get(Event::kTraceCacheMisses));
  a.itlb_refs = static_cast<double>(c.get(Event::kItlbReferences));
  a.itlb_misses = static_cast<double>(c.get(Event::kItlbMisses));
  a.dtlb_misses = static_cast<double>(c.get(Event::kDtlbLoadMisses) +
                                      c.get(Event::kDtlbStoreMisses));
  a.branches = static_cast<double>(c.get(Event::kBranches));
  a.mispredicts = static_cast<double>(c.get(Event::kBranchMispredicts));
  a.bus_reads = static_cast<double>(c.get(Event::kBusReads));
  a.bus_writes = static_cast<double>(c.get(Event::kBusWrites));
  a.bus_prefetches = static_cast<double>(c.get(Event::kBusPrefetches));
  a.prefetches_issued = static_cast<double>(c.get(Event::kPrefetchesIssued));
  a.prefetches_useful = static_cast<double>(c.get(Event::kPrefetchesUseful));
  a.stall_mem = static_cast<double>(c.get(Event::kStallCyclesMemory));
  a.stall_branch = static_cast<double>(c.get(Event::kStallCyclesBranch));
  a.stall_tlb = static_cast<double>(c.get(Event::kStallCyclesTlb));
  a.stall_fe = static_cast<double>(c.get(Event::kStallCyclesFrontend));
  return out;
}

PairResult run_pair(sim::Machine& machine, npb::Benchmark a, npb::Benchmark b,
                    const StudyConfig& cfg, const RunOptions& opt,
                    std::uint64_t seed) {
  assert(cfg.cpus.size() >= 2 && "pair runs need at least two contexts");
  machine.reset();
  std::optional<check::Checker> checker;
  if (machine.params().check_mode != sim::CheckMode::kOff) {
    checker.emplace(machine, machine.params().check_mode);
  }
  // Even list positions to program 0, odd to program 1.
  std::vector<sim::LogicalCpu> cpus_a, cpus_b;
  for (std::size_t i = 0; i < cfg.cpus.size(); ++i) {
    (i % 2 == 0 ? cpus_a : cpus_b).push_back(cfg.cpus[i]);
  }

  std::array<std::unique_ptr<Program>, 2> progs;
  progs[0] = make_program(a, 0, cpus_a, machine, opt, seed);
  progs[1] = make_program(b, 1, cpus_b, machine, opt, seed + 17);
  apply_smt_activity(machine, cfg.cpus);

  // Co-schedule: always advance the program that is behind in virtual time.
  // The (wall, index) heap order reproduces the old "<=" pick exactly:
  // equal wall times resolve to program 0.
  xomp::IndexedMinHeap behind(2);
  for (int i = 0; i < 2; ++i) {
    if (!progs[i]->done()) behind.push(i, progs[i]->team->wall_time());
  }
  while (!behind.empty()) {
    const int pick = behind.top();
    Program& p = *progs[pick];
    p.kernel->step(*p.team, p.steps_done);
    ++p.steps_done;
    if (p.done()) {
      behind.remove(pick);
      p.finish_time = p.team->wall_time();
      // The finished program's contexts go idle: recompute SMT activity so
      // the survivor regains full issue width on shared cores.
      const auto& still = progs[pick == 0 ? 1 : 0];
      if (!still->done()) {
        apply_smt_activity(machine, pick == 0 ? cpus_b : cpus_a);
      }
    } else {
      behind.update(pick, p.team->wall_time());
    }
  }

  PairResult out;
  out.program[0] = finish_result(*progs[0], opt.verify);
  out.program[1] = finish_result(*progs[1], opt.verify);
  if (checker) {
    // The analyses observe the whole machine, not one program; both results
    // carry the same machine-wide report.
    const check::CheckReport rep = checker->finish();
    out.program[0].check = rep;
    out.program[1].check = rep;
  }
  if (opt.verify && (!out.program[0].verified || !out.program[1].verified)) {
    throw std::runtime_error("pair verification failed on " +
                             std::string(cfg.name));
  }
  return out;
}

TrialStats speedup_over_trials(npb::Benchmark bench, const StudyConfig& cfg,
                               const RunOptions& opt) {
  // One machine serves every trial — reset() restores the cold state, so
  // this is bit-identical to constructing a machine per run.
  sim::Machine machine(opt.machine_params());
  std::vector<double> speedups;
  speedups.reserve(static_cast<std::size_t>(opt.trials));
  for (int t = 0; t < opt.trials; ++t) {
    const std::uint64_t seed = opt.trial_seed(t);
    const RunResult serial = run_serial(machine, bench, opt, seed);
    const RunResult par = run_single(machine, bench, cfg, opt, seed);
    speedups.push_back(serial.wall_cycles / par.wall_cycles);
  }
  return summarize(speedups);
}

}  // namespace paxsim::harness
