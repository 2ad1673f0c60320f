#include "harness/runner.hpp"

// paxlint: allow-file(wallclock) -- every steady_clock pair here measures host_sim_sec, the host-cost provenance field of run envelopes; simulated results read only Team::wall_time() (virtual cycles)

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "trace/tracer.hpp"
#include "xomp/min_heap.hpp"
#include "xomp/team.hpp"

namespace paxsim::harness {
namespace {

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

/// The programs of one run.
using Programs = std::vector<std::unique_ptr<Program>>;

/// Declares each core's SMT activity from the live placements of the
/// unfinished programs.
void refresh_smt_activity(sim::Machine& machine, const Programs& progs) {
  const sim::Topology& topo = machine.topology();
  for (int id = 0; id < topo.total_cores(); ++id) {
    int n = 0;
    for (const auto& prog : progs) {
      if (prog->done()) continue;
      for (int r = 0; r < prog->team->size(); ++r) {
        const sim::LogicalCpu c = prog->team->placement_of(r);
        if (topo.core_id(c.chip, c.core) == id) ++n;
      }
    }
    machine.core_by_id(id).set_active_contexts(std::max(1, n));
  }
}

/// Builds program p of @p benches on placements[p] — address-space slot p,
/// problem seed seed + 17·p, opt's grain and schedule override — and
/// declares the cores' SMT activity.  @p machine must be reset, with its
/// observer (if any) already attached: a Team's constructor reports its
/// runtime-internal lines and the initial clock sync.
Programs make_programs(sim::Machine& machine,
                       const std::vector<npb::Benchmark>& benches,
                       std::vector<std::vector<sim::LogicalCpu>> placements,
                       const RunOptions& opt, std::uint64_t seed) {
  assert(placements.size() == benches.size());
  Programs progs;
  for (std::size_t p = 0; p < benches.size(); ++p) {
    auto prog = std::make_unique<Program>();
    prog->kernel = npb::make_kernel(benches[p]);
    prog->space = std::make_unique<sim::AddressSpace>(static_cast<int>(p));
    prog->kernel->setup(*prog->space,
                        npb::ProblemConfig{opt.cls, seed + 17u * p});
    prog->team = std::make_unique<xomp::Team>(
        machine, std::move(placements[p]), &prog->counters, *prog->space);
    prog->team->set_grain(opt.grain);
    if (opt.sched_kind >= 0) {
      prog->team->set_schedule_override(xomp::Schedule{
          static_cast<xomp::ScheduleKind>(opt.sched_kind), opt.sched_chunk});
    }
    progs.push_back(std::move(prog));
  }
  refresh_smt_activity(machine, progs);
  return progs;
}

/// Steps every program to completion, always advancing the one furthest
/// behind in virtual time; the (wall, index) heap order sends equal walls
/// to the lower index.  A finished program's contexts go idle, so SMT
/// activity is re-declared and survivors regain full issue width on shared
/// cores.  @p after_step runs after every step and returns true when it
/// moved threads; SMT activity and the keys of the running programs are
/// then refreshed too (Team::repin can advance a wall without a step).
/// Returns the host seconds spent stepping.
double step_to_completion(sim::Machine& machine, Programs& progs,
                          const std::function<bool()>& after_step = {}) {
  const int n = static_cast<int>(progs.size());
  const auto wall = [&](int p) {
    return progs[static_cast<std::size_t>(p)]->team->wall_time();
  };
  xomp::IndexedMinHeap behind(n);
  for (int p = 0; p < n; ++p) {
    if (!progs[static_cast<std::size_t>(p)]->done()) behind.push(p, wall(p));
  }
  const auto host_t0 = std::chrono::steady_clock::now();
  while (!behind.empty()) {
    const int pick = behind.top();
    Program& prog = *progs[static_cast<std::size_t>(pick)];
    prog.kernel->step(*prog.team, prog.steps_done);
    ++prog.steps_done;
    if (prog.done()) {
      behind.remove(pick);
      prog.finish_time = prog.team->wall_time();
      refresh_smt_activity(machine, progs);
    } else {
      behind.update(pick, wall(pick));
    }
    if (after_step && after_step()) {
      refresh_smt_activity(machine, progs);
      for (int p = 0; p < n; ++p) {
        if (behind.contains(p)) behind.update(p, wall(p));
      }
    }
  }
  const auto host_t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(host_t1 - host_t0).count();
}

/// Flushes every program and assembles its result.  Throws when @p verify
/// is set and a program failed numeric verification on @p where.
std::vector<RunResult> finish(Programs& progs, bool verify,
                              std::string_view where) {
  std::vector<RunResult> out;
  for (const auto& prog : progs) {
    prog->team->flush();
    RunResult r;
    r.wall_cycles = prog->finish_time;
    r.counters = prog->counters;
    r.metrics = perf::derive_metrics(r.counters);
    r.verified = !verify || prog->kernel->verify();
    if (!r.verified) {
      throw std::runtime_error("verification failed: " +
                               std::string(prog->kernel->name()) + " on " +
                               std::string(where));
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

RunResult run_single(sim::Machine& machine, npb::Benchmark bench,
                     const StudyConfig& cfg, const RunOptions& opt,
                     std::uint64_t seed) {
  machine.reset();
  Programs progs = make_programs(machine, {bench}, {cfg.cpus}, opt, seed);
  const double host_sec = step_to_completion(machine, progs);
  RunResult r = finish(progs, opt.verify, cfg.name).front();
  r.host_sim_sec = host_sec;
  return r;
}

RunResult run_serial(sim::Machine& machine, npb::Benchmark bench,
                     const RunOptions& opt, std::uint64_t seed) {
  return run_single(machine, bench, serial_config(), opt, seed);
}

TraceResult run_traced(sim::Machine& machine, npb::Benchmark bench,
                       const StudyConfig& cfg, const RunOptions& opt,
                       sim::TraceMode depth, std::uint64_t seed) {
  if (depth == sim::TraceMode::kOff) {
    throw std::invalid_argument("run_traced: the trace depth is off");
  }
  trace::Tracer tracer(machine, depth);
  TraceResult out;
  // run_single's final flush drives the last on_flush while the tracer is
  // still attached, so the last region's deltas land in the stacks.
  out.run = run_single(machine, bench, cfg, opt, seed);
  out.trace = tracer.finish(out.run.wall_cycles);
  return out;
}

ProfiledRun run_profiled_serial(sim::Machine& machine, npb::Benchmark bench,
                                const RunOptions& opt, std::uint64_t seed) {
  model::Profiler profiler(machine);
  ProfiledRun out;
  out.result = run_serial(machine, bench, opt, seed);
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
  // Even list positions to program 0, odd to program 1.
  std::vector<std::vector<sim::LogicalCpu>> cpus(2);
  for (std::size_t i = 0; i < cfg.cpus.size(); ++i) {
    cpus[i % 2].push_back(cfg.cpus[i]);
  }
  Programs progs = make_programs(machine, {a, b}, std::move(cpus), opt, seed);
  step_to_completion(machine, progs);
  const std::vector<RunResult> r = finish(progs, opt.verify, cfg.name);
  return PairResult{{r[0], r[1]}};
}

ScheduledResult run_scheduled(sim::Machine& machine,
                              const std::vector<npb::Benchmark>& benches,
                              const StudyConfig& cfg, sched::Scheduler& policy,
                              const RunOptions& opt, std::uint64_t seed) {
  assert(!benches.empty() && benches.size() <= 2);
  machine.reset();
  const int np = static_cast<int>(benches.size());
  const int per = cfg.threads / np;
  assert(per >= 1 && "configuration too small for the program count");
  auto placement =
      policy.place(std::vector<int>(benches.size(), per), cfg.cpus);
  if (placement.size() != benches.size()) {
    throw std::runtime_error("scheduler returned wrong program count");
  }
  Programs progs =
      make_programs(machine, benches, std::move(placement), opt, seed);

  ScheduledResult out;
  out.scheduler = std::string(policy.name());
  // Progress signal per program: instructions retired per wall cycle since
  // the last rebalance (an OS would read this from the PMU, as the paper's
  // future-work scheduler proposes).
  std::vector<std::uint64_t> last_instructions(benches.size(), 0);
  std::vector<double> last_wall(benches.size(), 0);
  const auto rebalance = [&] {
    std::vector<sched::ThreadView> views;
    for (std::size_t p = 0; p < progs.size(); ++p) {
      Program& prog = *progs[p];
      if (prog.done()) continue;
      prog.team->flush();
      const std::uint64_t instr =
          prog.counters.get(perf::Event::kInstructions);
      const double wall = prog.team->wall_time();
      const double dwall = std::max(1.0, wall - last_wall[p]);
      const double progress =
          static_cast<double>(instr - last_instructions[p]) / dwall;
      last_instructions[p] = instr;
      last_wall[p] = wall;
      for (int r = 0; r < prog.team->size(); ++r) {
        views.push_back(sched::ThreadView{static_cast<int>(p), r,
                                          prog.team->placement_of(r), progress});
      }
    }
    // The policy is consulted only while some program still runs.
    if (views.empty()) return false;
    const auto migrations = policy.rebalance(views);
    for (const sched::Migration& m : migrations) {
      Program& prog = *progs[static_cast<std::size_t>(m.program)];
      if (prog.done()) continue;
      prog.team->repin(m.rank, m.to, sched::kMigrationPenaltyCycles);
      ++out.migrations;
    }
    return !migrations.empty();
  };
  step_to_completion(machine, progs, rebalance);
  out.program = finish(progs, opt.verify, cfg.name);
  return out;
}

TimelineResult run_timeline(sim::Machine& machine, npb::Benchmark bench,
                            const StudyConfig& cfg, const RunOptions& opt,
                            std::uint64_t seed) {
  machine.reset();
  Programs progs = make_programs(machine, {bench}, {cfg.cpus}, opt, seed);
  Program& prog = *progs.front();
  TimelineResult out;
  double prev_wall = 0;
  step_to_completion(machine, progs, [&] {
    prog.team->flush();
    out.timeline.sample(prog.counters);
    const double w = prog.team->wall_time();
    out.step_wall.push_back(w - prev_wall);
    prev_wall = w;
    return false;
  });
  // A failed verification is reported in run.verified, not thrown.
  out.run = finish(progs, false, cfg.name).front();
  out.run.verified = !opt.verify || prog.kernel->verify();
  return out;
}

}  // namespace paxsim::harness
