// Tests for CellSpec, the one public construction path for simulation
// cells: a fluent chain must mint exactly the CellKey/fingerprint the
// legacy hand-assembled (StudyConfig, RunOptions) pair minted, and
// resolve() must reject every cross-field inconsistency with a usable
// message.
#include "harness/cellspec.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

TEST(CellSpecTest, SingleCellMatchesLegacyConstruction) {
  // Legacy path: look up the config row, fill RunOptions field by field.
  const StudyConfig* cfg = find_config("HT on -4-1");
  ASSERT_NE(cfg, nullptr);
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassW;
  opt.trials = 3;
  opt.base_seed = 777;
  opt.grain = 2;
  opt.machine_scale = 8.0;
  opt.verify = false;
  const CellKey legacy =
      CellKey::from(CellKey::Kind::kSingle, npb::Benchmark::kCG,
                    npb::Benchmark::kCG, *cfg, opt, opt.trial_seed(1));

  const auto cell = CellSpec::bench(npb::Benchmark::kCG)
                        .config("HT on -4-1")
                        .problem_class('W')
                        .trials(3)
                        .seed(777)
                        .grain(2)
                        .scale(8.0)
                        .verify(false)
                        .resolve();
  EXPECT_EQ(cell.fingerprint(1), cell_fingerprint(legacy));
  EXPECT_EQ(cell.cfg.name, cfg->name);
  EXPECT_EQ(cell.opt.trial_seed(1), opt.trial_seed(1));
}

TEST(CellSpecTest, PairAndPredictKindsMatchLegacy) {
  const StudyConfig* cfg = find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  RunOptions opt;
  const CellKey pair_key =
      CellKey::from(CellKey::Kind::kPair, npb::Benchmark::kCG,
                    npb::Benchmark::kFT, *cfg, opt, opt.trial_seed(0));
  const CellKey predict_key =
      CellKey::from(CellKey::Kind::kPredict, npb::Benchmark::kCG,
                    npb::Benchmark::kCG, *cfg, opt, opt.trial_seed(0));

  const auto pair_cell = CellSpec::bench("CG")
                             .pair_with("FT")
                             .config("HT off -4-2")
                             .resolve();
  EXPECT_EQ(pair_cell.fingerprint(0), cell_fingerprint(pair_key));
  EXPECT_EQ(pair_cell.b, npb::Benchmark::kFT);

  const auto predict_cell = CellSpec::bench("CG")
                                .config("HT off -4-2")
                                .mode(CellSpec::Mode::kPredict)
                                .resolve();
  EXPECT_EQ(predict_cell.fingerprint(0), cell_fingerprint(predict_key));
}

TEST(CellSpecTest, ScheduleOverridesLandInTheIdentity) {
  const auto plain = CellSpec::bench("MG").config("HT on -8-2").resolve();
  const auto dyn =
      CellSpec::bench("MG").config("HT on -8-2").schedule("dynamic", 8)
          .resolve();
  EXPECT_EQ(dyn.opt.sched_kind, 1);
  EXPECT_EQ(dyn.opt.sched_chunk, 8u);
  EXPECT_NE(plain.fingerprint(0), dyn.fingerprint(0));

  // A chunk next to the kernel-default schedule is canonicalized away:
  // behaviourally identical cells share one identity.
  const auto default_chunk =
      CellSpec::bench("MG").config("HT on -8-2").schedule(-1, 8).resolve();
  EXPECT_EQ(default_chunk.opt.sched_chunk, 0u);
  EXPECT_EQ(default_chunk.fingerprint(0), plain.fingerprint(0));
}

TEST(CellSpecTest, MachinePresetMatchesManualTopologyResolve) {
  sim::Topology topo;
  std::string why;
  ASSERT_TRUE(sim::Topology::resolve("woodcrest", &topo, &why)) << why;
  const auto table = configs_for(topo);
  ASSERT_FALSE(table.empty());
  const std::string cfg_name = table.back().name;
  RunOptions opt;
  opt.topology = std::make_shared<const sim::Topology>(topo);
  const CellKey legacy =
      CellKey::from(CellKey::Kind::kSingle, npb::Benchmark::kFT,
                    npb::Benchmark::kFT, table.back(), opt, opt.trial_seed(0));

  const auto by_spec = CellSpec::bench("FT")
                           .machine("woodcrest")
                           .config(cfg_name)
                           .resolve();
  EXPECT_EQ(by_spec.fingerprint(0), cell_fingerprint(legacy));
  EXPECT_EQ(by_spec.machine_spec, "woodcrest");

  // Adopting an already resolved topology (serve's path) is equivalent.
  const auto by_topo = CellSpec::bench("FT")
                           .machine(opt.topology)
                           .config(cfg_name)
                           .resolve();
  EXPECT_EQ(by_topo.fingerprint(0), cell_fingerprint(legacy));
}

TEST(CellSpecTest, DigestIs32HexAndTrialSensitive) {
  const auto cell =
      CellSpec::bench("IS").config("Serial").trials(2).resolve();
  const std::string d0 = cell.digest(0), d1 = cell.digest(1);
  EXPECT_EQ(d0.size(), 32u);
  EXPECT_EQ(d0.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_NE(d0, d1);
}

TEST(CellSpecTest, ResolveRejectsInconsistentSpecs) {
  const auto why_of = [](const CellSpec& spec) {
    CellSpec::Resolved r;
    std::string why;
    EXPECT_FALSE(spec.resolve(&r, &why));
    return why;
  };
  EXPECT_NE(why_of(CellSpec::bench("XX").config("Serial"))
                .find("unknown benchmark"),
            std::string::npos);
  EXPECT_NE(why_of(CellSpec::bench("CG")).find("configuration not set"),
            std::string::npos);
  EXPECT_NE(why_of(CellSpec::bench("CG").config("HT sideways"))
                .find("unknown configuration"),
            std::string::npos);
  EXPECT_NE(why_of(CellSpec::bench("CG").pair_with("FT").config("Serial"))
                .find("at least two contexts"),
            std::string::npos);
  EXPECT_NE(why_of(CellSpec::bench("CG")
                       .config("Serial")
                       .mode(CellSpec::Mode::kPair))
                .find("second benchmark"),
            std::string::npos);
  EXPECT_NE(why_of(CellSpec::bench("CG").config("Serial").schedule("fastest"))
                .find("bad schedule"),
            std::string::npos);
  EXPECT_NE(why_of(CellSpec::bench("CG").config("Serial").machine("atlantis"))
                .find("bad machine"),
            std::string::npos);
  EXPECT_NE(why_of(CellSpec::bench("CG").config("Serial").problem_class('Q'))
                .find("bad problem class"),
            std::string::npos);
  // The scale must be a finite number >= 1: a NaN scale once reached
  // MachineParams::scaled and spun forever.
  for (const double bad : {0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_NE(why_of(CellSpec::bench("CG").config("Serial").scale(bad))
                  .find("bad scale"),
              std::string::npos)
        << bad;
  }
  // First builder error wins and later setters don't mask it.
  EXPECT_NE(why_of(CellSpec::bench("CG").config("Serial").grain(0).trials(0))
                .find("grain"),
            std::string::npos);
  // The throwing convenience wraps the same message.
  EXPECT_THROW((void)CellSpec::bench("CG").resolve(), std::invalid_argument);
}

}  // namespace
}  // namespace paxsim::harness
