// Unit tests for the experiment engine: machine-pool recycling, cell
// memoization, plan evaluation and the determinism guarantees the engine's
// header promises (pool-recycled == fresh, any job count == one job).
#include "harness/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "harness/runner.hpp"
#include "sched/scheduler.hpp"
#include "serve/store.hpp"
#include "sim/topology.hpp"
#include "xomp/schedule.hpp"

namespace paxsim::harness {
namespace {

RunOptions quick_options() {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.trials = 2;
  return opt;
}

bool same_result(const RunResult& x, const RunResult& y) {
  if (x.wall_cycles != y.wall_cycles || x.verified != y.verified) return false;
  for (std::size_t e = 0; e < perf::kEventCount; ++e) {
    const auto ev = static_cast<perf::Event>(e);
    if (x.counters.get(ev) != y.counters.get(ev)) return false;
  }
  return true;
}

TEST(ConfigFingerprintTest, DistinguishesSameNameDifferentCpus) {
  // The thread-scaling ladder reuses the name "HT on -8-2" with truncated
  // context lists; the fingerprint must keep those cells apart.
  const StudyConfig* full = find_config("HT on -8-2");
  StudyConfig truncated = *full;
  truncated.threads = 4;
  truncated.cpus.assign(full->cpus.begin(), full->cpus.begin() + 4);
  EXPECT_NE(config_fingerprint(*full), config_fingerprint(truncated));
  EXPECT_EQ(config_fingerprint(*full), config_fingerprint(*full));
}

TEST(MachinePoolTest, RecyclesInsteadOfConstructing) {
  MachinePool pool(sim::MachineParams{});
  { MachinePool::Lease a = pool.acquire(); }
  { MachinePool::Lease b = pool.acquire(); }
  EXPECT_EQ(pool.created(), 1u) << "second acquire must reuse the first";
  EXPECT_EQ(pool.acquired(), 2u);
  {
    MachinePool::Lease a = pool.acquire();
    MachinePool::Lease b = pool.acquire();  // first still out: build another
  }
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.acquired(), 4u);
}

TEST(MachinePoolTest, RecycledMachineRunsBitIdentical) {
  const RunOptions opt = quick_options();
  const StudyConfig* cfg = find_config("HT on -4-1");
  const std::uint64_t seed = opt.trial_seed(0);

  sim::Machine fresh_machine(opt.machine_params());
  const RunResult fresh =
      run_single(fresh_machine, npb::Benchmark::kCG, *cfg, opt, seed);

  MachinePool pool(opt.machine_params());
  {
    // Dirty the pooled machine with a different workload first.
    MachinePool::Lease lease = pool.acquire();
    (void)run_single(*lease, npb::Benchmark::kFT, *cfg, opt, seed + 1);
  }
  MachinePool::Lease lease = pool.acquire();
  const RunResult recycled =
      run_single(*lease, npb::Benchmark::kCG, *cfg, opt, seed);
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_TRUE(same_result(fresh, recycled))
      << "reset()-recycled machine diverged from a fresh construction";
}

TEST(CellKeyTest, FactoryProjectsEveryResultRelevantOption) {
  const StudyConfig* cfg = find_config("HT on -2-1");
  const RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);
  const CellKey base = CellKey::from(npb::Benchmark::kCG, *cfg, opt, seed);
  EXPECT_EQ(base, CellKey::from(npb::Benchmark::kCG, *cfg, opt, seed));
  EXPECT_EQ(base.kind, CellKey::Kind::kSingle);
  EXPECT_EQ(base.b, base.a);

  RunOptions coarse = opt;
  coarse.grain = opt.grain * 2;
  EXPECT_NE(base, CellKey::from(npb::Benchmark::kCG, *cfg, coarse, seed));

  const CellKey pair = CellKey::from(CellKey::Kind::kPair, npb::Benchmark::kCG,
                                     npb::Benchmark::kFT, *cfg, opt, seed);
  EXPECT_NE(base, pair);
  EXPECT_EQ(pair.b, npb::Benchmark::kFT);
}

TEST(CellKeyTest, TopologiesHashToDistinctCells) {
  // Cells simulated on different machines must never alias: the key carries
  // the topology fingerprint (empty for the default machine), and the
  // calibrated `paxville` preset — though bit-identical in results — is
  // still a distinct cell from the implicit default.
  const StudyConfig* cfg = find_config("HT on -2-1");
  const RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);
  const CellKey base = CellKey::from(npb::Benchmark::kCG, *cfg, opt, seed);
  EXPECT_TRUE(base.machine.empty());

  RunOptions pax = opt;
  pax.topology =
      std::make_shared<const sim::Topology>(sim::Topology::paxville());
  RunOptions wc = opt;
  wc.topology =
      std::make_shared<const sim::Topology>(sim::Topology::woodcrest());
  const CellKey pax_key = CellKey::from(npb::Benchmark::kCG, *cfg, pax, seed);
  const CellKey wc_key = CellKey::from(npb::Benchmark::kCG, *cfg, wc, seed);
  EXPECT_NE(base, pax_key);
  EXPECT_NE(base, wc_key);
  EXPECT_NE(pax_key, wc_key);

  const CellKeyHash h;
  EXPECT_NE(h(base), h(wc_key));
}

TEST(ExperimentEngineTest, MemoizesRepeatedCells) {
  ExperimentEngine engine(1);
  const RunOptions opt = quick_options();
  const StudyConfig* cfg = find_config("HT on -2-1");
  const std::uint64_t seed = opt.trial_seed(0);

  const RunResult first = engine.single(npb::Benchmark::kCG, *cfg, opt, seed);
  const RunResult again = engine.single(npb::Benchmark::kCG, *cfg, opt, seed);
  EXPECT_TRUE(same_result(first, again));

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.machines_created, 1u) << "the hit must not touch the pool";
}

TEST(ExperimentEngineTest, ObservedAndPlainRunsShareOneMachine) {
  // The profiler attaches to a leased machine rather than shaping it, so a
  // cell and a profile of one geometry run on one pooled machine, and the
  // cell still matches a fresh engine's bit for bit.
  const StudyConfig* cfg = find_config("HT on -4-1");
  const RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);

  ExperimentEngine engine(1);
  const RunResult plain = engine.single(npb::Benchmark::kCG, *cfg, opt, seed);
  (void)engine.profile(npb::Benchmark::kCG, opt, seed);
  EXPECT_EQ(engine.stats().machines_created, 1u);
  EXPECT_EQ(engine.stats().machines_acquired, 2u);
  EXPECT_EQ(engine.stats().cache_misses, 1u);

  ExperimentEngine fresh(1);
  EXPECT_TRUE(same_result(
      plain, fresh.single(npb::Benchmark::kCG, *cfg, opt, seed)));
}

TEST(ExperimentEngineTest, ConcurrentPredictsProfileOnce) {
  // Three workers predict one kernel on three rows and so ask for its
  // profile at once: one profiles it on one leased machine and the others
  // wait for that result, reporting it reused and costing no host time.
  const RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);
  const std::vector<const StudyConfig*> rows = {
      find_config("Serial"), find_config("HT off -2-1"),
      find_config("HT on -4-2")};
  ExperimentEngine engine(3);
  std::vector<PredictionResult> out(rows.size());
  engine.for_each(rows.size(), [&](std::size_t i) {
    out[i] = engine.predict(npb::Benchmark::kCG, *rows[i], opt, seed);
  });
  EXPECT_EQ(engine.stats().machines_acquired, 1u);
  int profiled = 0;
  for (const PredictionResult& r : out) {
    if (r.profile_reused) {
      EXPECT_EQ(r.profile_host_sec, 0.0);
    } else {
      ++profiled;
      EXPECT_GT(r.profile_host_sec, 0.0);
    }
  }
  EXPECT_EQ(profiled, 1);
}

TEST(ExperimentEngineTest, FailedProfileIsNotMemoized) {
  // A profiling run that throws leaves no memo entry: the next request
  // for its key leases a machine and profiles again.  A 4-way SMT core is
  // a valid topology the simulator refuses, so the lease itself throws.
  RunOptions opt = quick_options();
  auto topo = std::make_shared<sim::Topology>(sim::Topology::paxville());
  topo->smt_per_core = 4;
  opt.topology = topo;
  ExperimentEngine engine(1);
  EXPECT_FALSE(engine.start_profile(npb::Benchmark::kCG, opt, 1));
  EXPECT_THROW((void)engine.profile(npb::Benchmark::kCG, opt, 1),
               std::invalid_argument);
  EXPECT_THROW((void)engine.profile(npb::Benchmark::kCG, opt, 1),
               std::invalid_argument);
  EXPECT_EQ(engine.stats().machines_acquired, 3u);
}

TEST(ExperimentEngineTest, StartedProfileServesLaterRequests) {
  // start_profile runs a key's profile once; a second start and the
  // predict that follows find it memoized, on the one machine lease.
  const RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);
  ExperimentEngine engine(1);
  EXPECT_TRUE(engine.start_profile(npb::Benchmark::kCG, opt, seed));
  EXPECT_TRUE(engine.start_profile(npb::Benchmark::kCG, opt, seed));
  const PredictionResult r =
      engine.predict(npb::Benchmark::kCG, *find_config("Serial"), opt, seed);
  EXPECT_TRUE(r.profile_reused);
  EXPECT_EQ(r.profile_host_sec, 0.0);
  EXPECT_EQ(engine.stats().machines_acquired, 1u);
}

TEST(ExperimentEngineTest, DistinctSeedsAreDistinctCells) {
  ExperimentEngine engine(1);
  const RunOptions opt = quick_options();
  const StudyConfig* cfg = find_config("HT on -2-1");
  (void)engine.single(npb::Benchmark::kCG, *cfg, opt, opt.trial_seed(0));
  (void)engine.single(npb::Benchmark::kCG, *cfg, opt, opt.trial_seed(1));
  EXPECT_EQ(engine.stats().cache_misses, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST(CellKeyTest, SeedInvariantCellsKeyAtTheDefaultSeed) {
  const StudyConfig* cfg = find_config("HT on -2-1");
  const RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(1);
  EXPECT_EQ(CellKey::from(npb::Benchmark::kCG, *cfg, opt, seed).seed, seed);
  EXPECT_EQ(CellKey::from(npb::Benchmark::kMG, *cfg, opt, seed).seed,
            npb::kDefaultSeed);
  EXPECT_EQ(CellKey::from(CellKey::Kind::kPredict, npb::Benchmark::kSP,
                          npb::Benchmark::kSP, *cfg, opt, seed)
                .seed,
            npb::kDefaultSeed);
  // A pair keeps its seed when either program's seed reaches the simulator.
  EXPECT_EQ(CellKey::from(CellKey::Kind::kPair, npb::Benchmark::kFT,
                          npb::Benchmark::kCG, *cfg, opt, seed)
                .seed,
            seed);
  EXPECT_EQ(CellKey::from(CellKey::Kind::kPair, npb::Benchmark::kFT,
                          npb::Benchmark::kLU, *cfg, opt, seed)
                .seed,
            npb::kDefaultSeed);
}

TEST(ExperimentEngineTest, SeedInvariantTrialsSimulateOnce) {
  ExperimentEngine engine(1);
  RunOptions opt = quick_options();
  opt.trials = 3;
  const std::vector<StudyConfig> configs = parallel_configs();
  ASSERT_EQ(configs.size(), 7u);
  const StudyResult study =
      engine.run(ExperimentPlan(opt, configs)
                     .add_benchmark(npb::Benchmark::kCG)
                     .add_benchmark(npb::Benchmark::kMG)
                     .with_serial_baselines());
  // CG: (7 configs + 1 baseline) x 3 trials; MG: 7 configs + 1 baseline.
  EXPECT_EQ(engine.stats().cache_misses, 8u * 3 + 8u);
  for (int t = 1; t < opt.trials; ++t) {
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      EXPECT_TRUE(same_result(study.single(npb::Benchmark::kMG, ci, 0),
                              study.single(npb::Benchmark::kMG, ci, t)))
          << "config " << ci << " trial " << t;
    }
    EXPECT_TRUE(same_result(study.serial(npb::Benchmark::kMG, 0),
                            study.serial(npb::Benchmark::kMG, t)));
  }
  // The shared answer is what the last trial simulates on its own.
  sim::Machine machine(opt.machine_params());
  EXPECT_TRUE(same_result(
      study.single(npb::Benchmark::kMG, configs.size() - 1, 2),
      run_single(machine, npb::Benchmark::kMG, configs.back(), opt,
                 opt.trial_seed(2))));
}

TEST(ExperimentEngineTest, PlanSharesSerialBaselineAcrossConfigs) {
  // A two-config plan with baselines needs exactly one serial cell per
  // trial, and re-running the same plan is answered fully from the cache.
  ExperimentEngine engine(1);
  const RunOptions opt = quick_options();
  const std::vector<StudyConfig> configs = {*find_config("HT on -2-1"),
                                            *find_config("HT off -2-1")};
  const auto plan = ExperimentPlan(opt, configs)
                        .add_benchmark(npb::Benchmark::kCG)
                        .with_serial_baselines();
  (void)engine.run(plan);
  // 2 trials x (2 configs + 1 baseline) = 6 simulations.
  EXPECT_EQ(engine.stats().cache_misses, 6u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);

  (void)engine.run(plan);
  EXPECT_EQ(engine.stats().cache_misses, 6u) << "warm plan must not simulate";
  EXPECT_EQ(engine.stats().cache_hits, 6u);
  EXPECT_DOUBLE_EQ(engine.stats().hit_rate(), 0.5);
}

TEST(ExperimentEngineTest, ParallelDispatchMatchesSerialDispatch) {
  // The determinism guarantee of the header: the result table is identical
  // for any job count, because every cell runs on its own pooled machine.
  const RunOptions opt = quick_options();
  const std::vector<StudyConfig> configs = parallel_configs();
  const auto plan = ExperimentPlan(opt, configs)
                        .add_benchmark(npb::Benchmark::kCG)
                        .add_benchmark(npb::Benchmark::kMG)
                        .add_pair(npb::Benchmark::kCG, npb::Benchmark::kFT)
                        .with_serial_baselines();

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "paxsim_engine_parallel";
  std::filesystem::remove_all(dir);
  auto store = std::make_shared<serve::ResultStore>(dir.string());

  ExperimentEngine serial_engine(1);
  ExperimentEngine parallel_engine(4);
  parallel_engine.set_store(store);
  const StudyResult s1 = serial_engine.run(plan);
  const StudyResult s4 = parallel_engine.run(plan);

  // The workers write every simulated cell through to the store, once.
  EXPECT_EQ(store->scan().entries, parallel_engine.stats().cache_misses);
  EXPECT_EQ(parallel_engine.stats().store_writes,
            parallel_engine.stats().cache_misses);
  ExperimentEngine reader(1);
  reader.set_store(std::make_shared<serve::ResultStore>(dir.string()));
  (void)reader.run(plan);
  EXPECT_EQ(reader.stats().cache_misses, 0u)
      << "the store must answer every cell the workers simulated";

  for (int t = 0; t < opt.trials; ++t) {
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      for (const npb::Benchmark b :
           {npb::Benchmark::kCG, npb::Benchmark::kMG}) {
        EXPECT_TRUE(same_result(s1.single(b, ci, t), s4.single(b, ci, t)))
            << "jobs=4 diverged on config " << ci << " trial " << t;
      }
      for (int p = 0; p < 2; ++p) {
        EXPECT_TRUE(same_result(s1.pair(0, ci, t).program[p],
                                s4.pair(0, ci, t).program[p]));
      }
    }
    EXPECT_TRUE(same_result(s1.serial(npb::Benchmark::kCG, t),
                            s4.serial(npb::Benchmark::kCG, t)));
  }
}

TEST(ExperimentEngineTest, ScheduledMatchesLegacyRunner) {
  const RunOptions opt = quick_options();
  const StudyConfig* cfg = find_config("HT on -8-2");
  const std::vector<npb::Benchmark> benches = {npb::Benchmark::kCG,
                                               npb::Benchmark::kFT};
  const std::uint64_t seed = opt.trial_seed(0);

  auto p1 = sched::make_ht_aware();
  sim::Machine machine(opt.machine_params());
  const ScheduledResult fresh =
      run_scheduled(machine, benches, *cfg, *p1, opt, seed);

  ExperimentEngine engine(1);
  auto p2 = sched::make_ht_aware();
  const ScheduledResult pooled =
      engine.scheduled(benches, *cfg, *p2, opt, seed);

  ASSERT_EQ(fresh.program.size(), pooled.program.size());
  EXPECT_EQ(fresh.migrations, pooled.migrations);
  for (std::size_t p = 0; p < fresh.program.size(); ++p) {
    EXPECT_TRUE(same_result(fresh.program[p], pooled.program[p]));
  }
}

TEST(ExperimentEngineTest, TimelineMatchesWholeRunCounters) {
  const StudyConfig* cfg = find_config("HT on -4-1");
  // The kernel defaults, then a grain and a schedule override: the
  // timeline must honour both exactly as a whole run does.
  RunOptions tuned = quick_options();
  tuned.grain = 8;
  tuned.sched_kind = static_cast<int>(xomp::ScheduleKind::kDynamic);
  tuned.sched_chunk = 4;
  for (const RunOptions& opt : {quick_options(), tuned}) {
    SCOPED_TRACE(testing::Message() << "grain " << opt.grain);
    const std::uint64_t seed = opt.trial_seed(0);
    ExperimentEngine engine(1);
    const TimelineResult tl =
        engine.timeline(npb::Benchmark::kMG, *cfg, opt, seed);
    const RunResult whole =
        engine.single(npb::Benchmark::kMG, *cfg, opt, seed);

    EXPECT_TRUE(same_result(tl.run, whole))
        << "sampling per step must not perturb the run";
    EXPECT_GT(tl.timeline.intervals(), 0u);
    EXPECT_EQ(tl.step_wall.size(), tl.timeline.intervals());
    double total = 0;
    for (const double w : tl.step_wall) total += w;
    EXPECT_DOUBLE_EQ(total, tl.run.wall_cycles);
  }
}

TEST(ExperimentEngineTest, ForEachCoversEveryIndexExactlyOnce) {
  ExperimentEngine engine(4);
  constexpr std::size_t kN = 97;
  std::vector<std::atomic<int>> hits(kN);
  engine.for_each(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  engine.for_each(0, [&](std::size_t) { FAIL() << "n=0 must not invoke"; });
}

TEST(ExperimentEngineTest, ForEachPropagatesExceptions) {
  ExperimentEngine engine(2);
  EXPECT_THROW(engine.for_each(8,
                               [](std::size_t i) {
                                 if (i == 3) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
}

TEST(StudyResultTest, ThrowsOnCellOutsidePlan) {
  ExperimentEngine engine(1);
  const RunOptions opt = quick_options();
  const StudyResult study =
      engine.run(ExperimentPlan(opt, {*find_config("HT on -2-1")})
                     .add_benchmark(npb::Benchmark::kCG));
  EXPECT_THROW((void)study.serial(npb::Benchmark::kCG), std::out_of_range)
      << "baselines were not requested";
  EXPECT_THROW((void)study.single(npb::Benchmark::kFT, 0), std::out_of_range);
}

}  // namespace
}  // namespace paxsim::harness
