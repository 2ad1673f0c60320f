// Job-file parsing + expansion tests: cross-product counts, per-trial
// seeds, cross-sweep dedup, and the error surface (unknown members are
// rejected, not ignored — a typo'd knob must not silently sweep defaults).
#include "serve/jobs.hpp"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "npb/kernel.hpp"
#include "sim/topology.hpp"

namespace paxsim::serve {
namespace {

JobPlan parse_ok(const std::string& text) {
  JobPlan plan;
  std::string error;
  EXPECT_TRUE(parse_job_file(text, &plan, &error)) << error;
  return plan;
}

std::string parse_fail(const std::string& text) {
  JobPlan plan;
  std::string error;
  EXPECT_FALSE(parse_job_file(text, &plan, &error)) << "unexpectedly parsed";
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(JobFileTest, ExpandsTheFullCrossProduct) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "defaults":{"class":"S","trials":2},
          "sweeps":[{"benches":["CG","IS"],
                     "configs":["Serial","HT on -2-1"],
                     "modes":["single"]}]})");
  // 2 benches x 2 configs x 2 trials.
  EXPECT_EQ(plan.cells.size(), 8u);
  for (const JobCell& c : plan.cells) {
    EXPECT_EQ(c.key.kind, harness::CellKey::Kind::kSingle);
    EXPECT_EQ(c.key.cls, npb::ProblemClass::kClassS);
    EXPECT_EQ(c.machine, "");
  }
}

TEST(JobFileTest, SeedInvariantTrialsExpandToOneCell) {
  // FT's seed never reaches the simulator: its two trials are one cell per
  // configuration, run at the default seed whatever the job's base seed.
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "defaults":{"class":"S","trials":2,"seed":7},
          "sweeps":[{"benches":["FT"],
                     "configs":["Serial","HT on -2-1"],
                     "modes":["single"]}]})");
  ASSERT_EQ(plan.cells.size(), 2u);
  for (const JobCell& c : plan.cells) {
    EXPECT_EQ(c.key.seed, npb::kDefaultSeed);
    EXPECT_EQ(c.seed, c.key.seed);
  }
}

TEST(JobFileTest, TrialsUseTheEngineSeedSchedule) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "defaults":{"trials":3,"seed":1000},
          "sweeps":[{"benches":["CG"],"configs":["Serial"],
                     "modes":["single"]}]})");
  ASSERT_EQ(plan.cells.size(), 3u);
  harness::RunOptions opt;
  opt.base_seed = 1000;
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(plan.cells[t].seed, opt.trial_seed(t)) << "trial " << t;
    EXPECT_EQ(plan.cells[t].key.seed, plan.cells[t].seed);
  }
}

TEST(JobFileTest, AllConfigsMatchesTheTableForSingles) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "sweeps":[{"benches":["CG"],"configs":"all",
                     "modes":["single"]}]})");
  EXPECT_EQ(plan.cells.size(), harness::all_configs().size());
}

TEST(JobFileTest, PairsOnAllConfigsExcludeSerial) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "sweeps":[{"configs":"all","modes":["pair"],
                     "pairs":[["CG","FT"]]}]})");
  // A pair needs threads to split: the serial row drops out of "all".
  EXPECT_EQ(plan.cells.size(), harness::all_configs().size() - 1);
  for (const JobCell& c : plan.cells) {
    EXPECT_EQ(c.key.kind, harness::CellKey::Kind::kPair);
    EXPECT_EQ(c.key.a, npb::Benchmark::kCG);
    EXPECT_EQ(c.key.b, npb::Benchmark::kFT);
    EXPECT_NE(c.cfg.name, "Serial");
  }
}

TEST(JobFileTest, PredictModeProducesPredictKeys) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "sweeps":[{"benches":["MG"],"configs":["HT on -4-1"],
                     "modes":["predict"]}]})");
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].key.kind, harness::CellKey::Kind::kPredict);
}

TEST(JobFileTest, DuplicateCellsAcrossSweepsCollapse) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "defaults":{"class":"S"},
          "sweeps":[{"benches":["CG"],"configs":["Serial"],
                     "modes":["single"]},
                    {"benches":["CG","MG"],"configs":["Serial"],
                     "modes":["single"]}]})");
  // The CG/Serial cell appears in both sweeps; it expands once.
  ASSERT_EQ(plan.cells.size(), 2u);
  std::unordered_set<std::string> digests;
  for (const JobCell& c : plan.cells) {
    digests.insert(harness::cell_digest(harness::cell_fingerprint(c.key)));
  }
  EXPECT_EQ(digests.size(), 2u);
}

TEST(JobFileTest, MachineSweepSetsTheTopologyAndKey) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "sweeps":[{"benches":["CG"],"machines":["default","woodcrest"],
                     "configs":["HT off -2-2"],"modes":["single"]}]})");
  ASSERT_EQ(plan.cells.size(), 2u);
  EXPECT_EQ(plan.cells[0].machine, "");
  EXPECT_TRUE(plan.cells[0].key.machine.empty());
  EXPECT_EQ(plan.cells[1].machine, "woodcrest");
  sim::Topology wc;
  std::string why;
  ASSERT_TRUE(sim::Topology::resolve("woodcrest", &wc, &why)) << why;
  EXPECT_EQ(plan.cells[1].key.machine, wc.fingerprint());
  ASSERT_NE(plan.cells[1].opt.topology, nullptr);
  EXPECT_EQ(plan.cells[1].opt.topology->fingerprint(), wc.fingerprint());
}

TEST(JobFileTest, StoreMemberSurfacesOnThePlan) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file","store":"results/run1",
          "sweeps":[{"benches":["CG"],"configs":["Serial"],
                     "modes":["single"]}]})");
  EXPECT_EQ(plan.store_dir, "results/run1");
}

TEST(JobFileTest, PerSweepOverridesBeatDefaults) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "defaults":{"class":"B","verify":true},
          "sweeps":[{"benches":["CG"],"configs":["Serial"],
                     "modes":["single"],"class":"S","verify":false,
                     "grain":4,"scale":8.0}]})");
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].key.cls, npb::ProblemClass::kClassS);
  EXPECT_FALSE(plan.cells[0].key.verify);
  EXPECT_EQ(plan.cells[0].key.grain, 4u);
  EXPECT_EQ(plan.cells[0].key.machine_scale, 8.0);
}

TEST(JobFileTest, ScheduleKnobsLandInTheCellIdentity) {
  const JobPlan plan = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "defaults":{"schedule":"dynamic","chunk":8},
          "sweeps":[{"benches":["CG"],"configs":["HT on -2-1"],
                     "modes":["single"]}]})");
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].opt.sched_kind, 1);
  EXPECT_EQ(plan.cells[0].opt.sched_chunk, 8u);

  // A chunk next to the kernel-default schedule canonicalizes away, so the
  // cell dedups against the plain spelling.
  const JobPlan dup = parse_ok(
      R"({"schema_version":1,"kind":"job_file",
          "sweeps":[{"benches":["CG"],"configs":["Serial"],
                     "modes":["single"]},
                    {"benches":["CG"],"configs":["Serial"],
                     "modes":["single"],"schedule":"default","chunk":16}]})");
  EXPECT_EQ(dup.cells.size(), 1u);

  EXPECT_NE(parse_fail(
                R"({"schema_version":1,"kind":"job_file",
                    "sweeps":[{"benches":["CG"],"configs":["Serial"],
                               "modes":["single"],"schedule":"fastest"}]})")
                .find("schedule"),
            std::string::npos);
}

TEST(JobFileTest, RejectsWrongKindAndVersion) {
  EXPECT_NE(parse_fail(R"({"schema_version":1,"kind":"report",
                           "sweeps":[]})")
                .find("kind"),
            std::string::npos);
  EXPECT_NE(parse_fail(R"({"schema_version":99,"kind":"job_file",
                           "sweeps":[]})")
                .find("schema_version"),
            std::string::npos);
}

TEST(JobFileTest, RejectsUnknownMembers) {
  // A typo ("trails") must fail loudly, not sweep with default trials.
  const std::string err = parse_fail(
      R"({"schema_version":1,"kind":"job_file",
          "sweeps":[{"benches":["CG"],"configs":["Serial"],
                     "modes":["single"],"trails":5}]})");
  EXPECT_NE(err.find("trails"), std::string::npos) << err;
}

TEST(JobFileTest, RejectsAMisplacedTopLevelMachines) {
  // "machines" belongs in a sweep; at the top level it used to be ignored,
  // serving every cell on the default machine.
  const std::string err = parse_fail(
      R"({"schema_version":1,"kind":"job_file","machines":["woodcrest"],
          "sweeps":[{"benches":["CG"],"configs":["Serial"],
                     "modes":["single"]}]})");
  EXPECT_NE(err.find("unknown member \"machines\""), std::string::npos)
      << err;
}

TEST(JobFileTest, RejectsAMisspelledTopLevelMember) {
  const std::string err = parse_fail(
      R"({"schema_version":1,"kind":"job_file","machinez":["woodcrest"],
          "sweeps":[{"benches":["CG"],"configs":["Serial"],
                     "modes":["single"]}]})");
  EXPECT_NE(err.find("unknown member \"machinez\""), std::string::npos)
      << err;
}

TEST(JobFileTest, RejectsUnknownBenchConfigModeAndMachine) {
  EXPECT_NE(parse_fail(R"({"schema_version":1,"kind":"job_file",
                           "sweeps":[{"benches":["ZZ"],
                                      "configs":["Serial"],
                                      "modes":["single"]}]})")
                .find("ZZ"),
            std::string::npos);
  EXPECT_NE(parse_fail(R"({"schema_version":1,"kind":"job_file",
                           "sweeps":[{"benches":["CG"],
                                      "configs":["No such row"],
                                      "modes":["single"]}]})")
                .find("No such row"),
            std::string::npos);
  EXPECT_NE(parse_fail(R"({"schema_version":1,"kind":"job_file",
                           "sweeps":[{"benches":["CG"],
                                      "configs":["Serial"],
                                      "modes":["sideways"]}]})")
                .find("sideways"),
            std::string::npos);
  parse_fail(R"({"schema_version":1,"kind":"job_file",
                 "sweeps":[{"benches":["CG"],
                            "machines":["not-a-preset"],
                            "configs":["Serial"],
                            "modes":["single"]}]})");
}

TEST(JobFileTest, PairModeRequiresPairs) {
  const std::string err = parse_fail(
      R"({"schema_version":1,"kind":"job_file",
          "sweeps":[{"configs":["HT on -2-1"],"modes":["pair"]}]})");
  EXPECT_NE(err.find("pair"), std::string::npos) << err;
}

TEST(JobFileTest, PairModeRefusesASingleContextConfig) {
  // Two programs split a row's contexts; the Serial row has one.
  const std::string err = parse_fail(
      R"({"schema_version":1,"kind":"job_file",
          "sweeps":[{"configs":["Serial"],"modes":["pair"],
                     "pairs":[["CG","FT"]]}]})");
  EXPECT_NE(err.find("at least two contexts"), std::string::npos) << err;
}

TEST(JobFileTest, RejectsOverflowingScaleAndDuplicateKnobs) {
  const auto with_defaults = [](const std::string& knobs) {
    return R"({"schema_version":1,"kind":"job_file","defaults":{)" + knobs +
           R"(},"sweeps":[{"benches":["CG"],"configs":["Serial"]}]})";
  };
  EXPECT_NE(parse_fail(with_defaults(R"("scale":1e999)")).find("out of range"),
            std::string::npos);
  EXPECT_NE(parse_fail(with_defaults(R"("trials":1,"trials":2)"))
                .find("duplicate member \"trials\""),
            std::string::npos);
  EXPECT_NE(parse_fail(with_defaults(R"("scale":"big")")).find("\"scale\""),
            std::string::npos);
  EXPECT_NE(parse_fail(with_defaults(R"("scale":0.5)")).find("bad scale"),
            std::string::npos);
  EXPECT_EQ(parse_ok(with_defaults(R"("scale":2)")).cells.size(), 1u);
  EXPECT_NE(parse_fail(with_defaults(R"("class":"Q")")).find("\"class\""),
            std::string::npos);
  EXPECT_NE(parse_fail(with_defaults(R"("grain":0)")).find("\"grain\""),
            std::string::npos);
  for (const char* trials : {R"("trials":0)", R"("trials":1001)"}) {
    EXPECT_NE(parse_fail(with_defaults(trials)).find("\"trials\""),
              std::string::npos)
        << trials;
  }
}

TEST(JobFileTest, RejectsMalformedJson) {
  parse_fail("{");
  parse_fail("");
  parse_fail("[1,2,3]");
}

}  // namespace
}  // namespace paxsim::serve
