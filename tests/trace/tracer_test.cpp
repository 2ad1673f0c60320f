// Unit tests for the Tracer sink: RAII attachment, run_traced precondition
// validation, and the shape of the report a real (small) traced run yields.
#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "check/checker.hpp"
#include "harness/config.hpp"
#include "harness/runner.hpp"

namespace paxsim::trace {
namespace {

harness::RunOptions small_options() {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.trials = 1;
  return opt;
}

TEST(TracerTest, AttachesAndDetachesRaii) {
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  EXPECT_EQ(machine.trace_sink(), nullptr);
  {
    Tracer tracer(machine, sim::TraceMode::kStacks);
    EXPECT_EQ(machine.trace_sink(), &tracer);
  }
  EXPECT_EQ(machine.trace_sink(), nullptr);
}

TEST(TracerTest, FinishDetaches) {
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  Tracer tracer(machine, sim::TraceMode::kStacks);
  const TraceReport r = tracer.finish(123.0);
  EXPECT_EQ(machine.trace_sink(), nullptr);
  EXPECT_EQ(r.mode, sim::TraceMode::kStacks);
  EXPECT_DOUBLE_EQ(r.wall_cycles, 123.0);
}

TEST(TracerTest, RunTracedRejectsUntracedMachine) {
  // The depth is run_traced's argument; a machine carries no trace mode.
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  EXPECT_THROW(harness::run_traced(machine, npb::Benchmark::kEP,
                                   harness::serial_config(), opt,
                                   sim::TraceMode::kOff, opt.trial_seed(0)),
               std::invalid_argument);
}

TEST(TracerTest, RunTracedRejectsCheckMode) {
  // A checked machine already carries its one sink.
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  check::Checker checker(machine, sim::CheckMode::kFull);
  EXPECT_THROW(harness::run_traced(machine, npb::Benchmark::kEP,
                                   harness::serial_config(), opt,
                                   sim::TraceMode::kStacks, opt.trial_seed(0)),
               std::logic_error);
  EXPECT_EQ(machine.trace_sink(), &checker) << "the checker stays attached";
}

TEST(TracerTest, SerialRunReportShape) {
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  const harness::TraceResult tr = harness::run_traced(
      machine, npb::Benchmark::kEP, harness::serial_config(), opt,
      sim::TraceMode::kStacks, opt.trial_seed(0));
  const TraceReport& t = tr.trace;

  EXPECT_TRUE(tr.run.verified);
  EXPECT_EQ(t.mode, sim::TraceMode::kStacks);
  EXPECT_DOUBLE_EQ(t.wall_cycles, tr.run.wall_cycles);

  // Serial: exactly one active context, and its stack closes on wall.
  int active = 0;
  for (const ContextStack& c : t.contexts) {
    if (!c.active) continue;
    ++active;
    EXPECT_EQ(c.stack.sum(), t.wall_cycles);
    EXPECT_GT(c.executed, 0.0);
  }
  EXPECT_EQ(active, 1);

  // EP has parallel regions and barriers even serially (one thread).
  EXPECT_GT(t.team_forks, 0u);
  EXPECT_GT(t.loop_dispatches, 0u);
  EXPECT_GT(t.barriers, 0u);
  EXPECT_FALSE(t.regions.empty());

  // kStacks records no events.
  EXPECT_EQ(t.events_recorded, 0u);
  EXPECT_TRUE(t.events.empty());
}

TEST(TracerTest, FullModeRecordsOrderedEvents) {
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  const harness::StudyConfig* cfg = harness::find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  const harness::TraceResult tr = harness::run_traced(
      machine, npb::Benchmark::kMG, *cfg, opt, sim::TraceMode::kFull,
      opt.trial_seed(0));
  const TraceReport& t = tr.trace;

  EXPECT_GT(t.events_recorded, 0u);
  ASSERT_FALSE(t.events.empty());
  for (std::size_t i = 1; i < t.events.size(); ++i) {
    EXPECT_LE(t.events[i - 1].t0, t.events[i].t0) << "event " << i;
  }
  // Fork/join events bracket every region; loops were dispatched.
  bool saw_fork = false, saw_loop = false, saw_barrier = false;
  for (const TraceEvent& e : t.events) {
    saw_fork |= e.kind == TraceEvent::Kind::kFork;
    saw_loop |= e.kind == TraceEvent::Kind::kLoop;
    saw_barrier |= e.kind == TraceEvent::Kind::kBarrier;
  }
  EXPECT_TRUE(saw_fork);
  EXPECT_TRUE(saw_loop);
  EXPECT_TRUE(saw_barrier);
}

TEST(TracerTest, RegionInstancesMatchLoopDispatches) {
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  const harness::StudyConfig* cfg = harness::find_config("HT on -4-1");
  ASSERT_NE(cfg, nullptr);
  const harness::TraceResult tr = harness::run_traced(
      machine, npb::Benchmark::kCG, *cfg, opt, sim::TraceMode::kStacks,
      opt.trial_seed(0));
  std::uint64_t instances = 0;
  for (const RegionStats& r : tr.trace.regions) instances += r.instances;
  EXPECT_EQ(instances, tr.trace.loop_dispatches);
}

TEST(TracerTest, TracedRunIsRepeatable) {
  const harness::RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  const harness::StudyConfig* cfg = harness::find_config("HT off -2-1");
  ASSERT_NE(cfg, nullptr);
  const auto a = harness::run_traced(machine, npb::Benchmark::kFT, *cfg, opt,
                                     sim::TraceMode::kStacks,
                                     opt.trial_seed(0));
  const auto b = harness::run_traced(machine, npb::Benchmark::kFT, *cfg, opt,
                                     sim::TraceMode::kStacks,
                                     opt.trial_seed(0));
  EXPECT_EQ(a.run.wall_cycles, b.run.wall_cycles);
  EXPECT_EQ(a.run.counters, b.run.counters);
  ASSERT_EQ(a.trace.contexts.size(), b.trace.contexts.size());
  for (std::size_t i = 0; i < a.trace.contexts.size(); ++i) {
    EXPECT_EQ(a.trace.contexts[i].stack.cycles,
              b.trace.contexts[i].stack.cycles);
  }
}

}  // namespace
}  // namespace paxsim::trace
