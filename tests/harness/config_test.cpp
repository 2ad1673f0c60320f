// Tests for the Table-1 configuration registry and Figure-1 labelling.
#include "harness/config.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

TEST(ConfigTest, TableOneHasEightRows) {
  const auto& all = all_configs();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_TRUE(all.front().is_serial());
  EXPECT_EQ(parallel_configs().size(), 7u);
}

TEST(ConfigTest, RowContentsMatchThePaper) {
  struct Expect {
    const char* name;
    Architecture arch;
    bool ht;
    int threads, chips;
  };
  const Expect rows[] = {
      {"Serial", Architecture::kSerial, false, 1, 1},
      {"HT on -2-1", Architecture::kSMT, true, 2, 1},
      {"HT off -2-1", Architecture::kCMP, false, 2, 1},
      {"HT on -4-1", Architecture::kCMT, true, 4, 1},
      {"HT off -2-2", Architecture::kSMP, false, 2, 2},
      {"HT on -4-2", Architecture::kSmtSmp, true, 4, 2},
      {"HT off -4-2", Architecture::kCmpSmp, false, 4, 2},
      {"HT on -8-2", Architecture::kCmtSmp, true, 8, 2},
  };
  const auto& all = all_configs();
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, rows[i].name);
    EXPECT_EQ(all[i].arch, rows[i].arch);
    EXPECT_EQ(all[i].ht_on, rows[i].ht);
    EXPECT_EQ(all[i].threads, rows[i].threads);
    EXPECT_EQ(all[i].chips, rows[i].chips);
    EXPECT_EQ(all[i].cpus.size(), static_cast<std::size_t>(rows[i].threads));
  }
}

TEST(ConfigTest, HardwareContextsMatchTableOne) {
  // Table 1 hardware-context columns, via Figure-1 labels.
  const sim::Topology paxville = sim::Topology::paxville();
  auto labels = [&](const char* name) {
    const StudyConfig* c = find_config(name);
    std::string out;
    for (const auto cpu : c->cpus) {
      if (!out.empty()) out += ",";
      out += cpu_label(cpu, c->ht_on, paxville);
    }
    return out;
  };
  EXPECT_EQ(labels("Serial"), "B0");
  EXPECT_EQ(labels("HT on -2-1"), "A0,A1");
  EXPECT_EQ(labels("HT off -2-1"), "B0,B1");
  EXPECT_EQ(labels("HT on -4-1"), "A0,A1,A2,A3");
  EXPECT_EQ(labels("HT off -2-2"), "B0,B2");
  EXPECT_EQ(labels("HT on -4-2"), "A0,A1,A4,A5");
  EXPECT_EQ(labels("HT off -4-2"), "B0,B1,B2,B3");
  EXPECT_EQ(labels("HT on -8-2"), "A0,A1,A2,A3,A4,A5,A6,A7");
}

TEST(ConfigTest, HtOffConfigsUseOnlyContextZero) {
  for (const auto& c : all_configs()) {
    if (c.ht_on) continue;
    for (const auto cpu : c.cpus) {
      EXPECT_EQ(cpu.context, 0) << c.name;
    }
  }
}

TEST(ConfigTest, NoDuplicateContextsWithinAConfig) {
  const sim::Topology paxville = sim::Topology::paxville();
  for (const auto& c : all_configs()) {
    std::set<int> seen;
    for (const auto cpu : c.cpus) {
      EXPECT_TRUE(seen.insert(paxville.flat(cpu)).second) << c.name;
    }
  }
}

TEST(ConfigTest, SerialConfigIsTheSerialRow) {
  const StudyConfig& s = serial_config();
  EXPECT_TRUE(s.is_serial());
  EXPECT_EQ(s.name, "Serial");
  EXPECT_EQ(s.threads, 1);
  // Same object as the registry row, not a copy.
  EXPECT_EQ(&s, &all_configs().front());
}

TEST(ConfigTest, FindConfig) {
  EXPECT_NE(find_config("HT on -4-1"), nullptr);
  EXPECT_EQ(find_config("HT on -16-4"), nullptr);
  EXPECT_EQ(find_config(""), nullptr);
}

TEST(ConfigTest, ArchitectureNames) {
  EXPECT_EQ(architecture_name(Architecture::kCMT), "CMT");
  EXPECT_EQ(architecture_name(Architecture::kCmpSmp), "CMP-based SMP");
  EXPECT_EQ(architecture_name(Architecture::kCmtSmp), "CMT-based SMP");
}

TEST(ConfigTest, ConfigsForAdaptsToTheShape) {
  // No SMT: no "HT on" rows at all.
  const std::vector<StudyConfig> wc =
      configs_for(sim::Topology::woodcrest());
  for (const StudyConfig& c : wc) EXPECT_FALSE(c.ht_on) << c.name;
  EXPECT_GE(find_config_index(wc, "HT off -4-2"), 0);
  EXPECT_LT(find_config_index(wc, "HT on -8-2"), 0);

  // 4x4 NUMA: the widest row uses all 16 contexts across 4 chips.
  const std::vector<StudyConfig> numa =
      configs_for(sim::Topology::numa16());
  const int widest = find_config_index(numa, "HT off -16-4");
  ASSERT_GE(widest, 0);
  EXPECT_EQ(numa[static_cast<std::size_t>(widest)].cpus.size(), 16u);
  EXPECT_EQ(numa[static_cast<std::size_t>(widest)].chips, 4);
}

TEST(ConfigTest, CpuLabelsFollowTheTopology) {
  // Figure 1's labelling (HardwareContextsMatchTableOne) stays
  // collision-free on a wider machine, where a fixed chip*4 + core*2 +
  // context would alias.
  const sim::Topology numa = sim::Topology::numa16();
  EXPECT_EQ(cpu_label(sim::LogicalCpu{1, 2, 0}, true, numa), "A6");
  EXPECT_EQ(cpu_label(sim::LogicalCpu{3, 3, 0}, false, numa), "B15");
}

}  // namespace
}  // namespace paxsim::harness
