#include "harness/config.hpp"

#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

using sim::LogicalCpu;

/// "HT on -8-2"-style name from the HT state, thread count and chip count.
std::string config_name(bool ht_on, int threads, int chips) {
  std::string s = ht_on ? "HT on -" : "HT off -";
  s += std::to_string(threads);
  s += '-';
  s += std::to_string(chips);
  return s;
}

}  // namespace

std::string_view architecture_name(Architecture a) noexcept {
  switch (a) {
    case Architecture::kSerial: return "Serial";
    case Architecture::kSMT: return "SMT";
    case Architecture::kCMP: return "CMP";
    case Architecture::kCMT: return "CMT";
    case Architecture::kSMP: return "SMP";
    case Architecture::kSmtSmp: return "SMT-based SMP";
    case Architecture::kCmpSmp: return "CMP-based SMP";
    case Architecture::kCmtSmp: return "CMT-based SMP";
  }
  return "?";
}

const std::vector<StudyConfig>& all_configs() {
  static const std::vector<StudyConfig> configs =
      configs_for(sim::Topology::paxville());
  return configs;
}

const StudyConfig& serial_config() { return all_configs().front(); }

std::vector<StudyConfig> parallel_configs() {
  return {all_configs().begin() + 1, all_configs().end()};
}

const StudyConfig* find_config(std::string_view name) {
  for (const StudyConfig& c : all_configs()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<StudyConfig> configs_for(const sim::Topology& topo) {
  const int P = topo.packages;
  const int C = topo.cores_per_package;
  const int S = topo.smt_per_core;
  std::vector<StudyConfig> v;

  const auto add = [&v](Architecture arch, bool ht_on,
                        std::vector<LogicalCpu> cpus) {
    const int threads = static_cast<int>(cpus.size());
    const int chips = cpus.back().chip + 1;  // rows fill packages from 0
    v.push_back({config_name(ht_on, threads, chips), arch, ht_on, threads,
                 chips, std::move(cpus)});
  };
  // The contexts @p keep accepts, in the topology's flat order.
  const auto pick = [&topo](auto keep) {
    std::vector<LogicalCpu> cpus;
    for (int i = 0; i < topo.total_contexts(); ++i) {
      if (keep(topo.unflat(i))) cpus.push_back(topo.unflat(i));
    }
    return cpus;
  };

  // Serial baseline: context 0 of core 0 of package 0.
  v.push_back({"Serial", Architecture::kSerial, false, 1, 1, {LogicalCpu{}}});

  // Group 1: the SMT pair (two contexts of core 0).
  if (S > 1) add(Architecture::kSMT, true, {topo.unflat(0), topo.unflat(1)});
  // Group 2: one chip.  The CMP pair (cores 0, 1), then — past two cores —
  // every core of the chip, then the chip with HT on.
  if (C > 1) {
    add(Architecture::kCMP, false, {topo.unflat(0), topo.unflat(S)});
    if (C > 2) {
      add(Architecture::kCMP, false, pick([](LogicalCpu c) {
            return c.chip == 0 && c.context == 0;
          }));
    }
    if (S > 1) {
      add(Architecture::kCMT, true,
          pick([](LogicalCpu c) { return c.chip == 0; }));
    }
  }
  // Group 3: both-chips-at-half-use (one core per chip, HT off then on).
  if (P > 1) {
    add(Architecture::kSMP, false, pick([](LogicalCpu c) {
          return c.core == 0 && c.context == 0;
        }));
    if (S > 1) {
      add(Architecture::kSmtSmp, true,
          pick([](LogicalCpu c) { return c.core == 0; }));
    }
  }
  // Group 4: everything.
  if (P > 1 && C > 1) {
    add(Architecture::kCmpSmp, false,
        pick([](LogicalCpu c) { return c.context == 0; }));
    if (S > 1) {
      add(Architecture::kCmtSmp, true, pick([](LogicalCpu) { return true; }));
    }
  }
  return v;
}

int find_config_index(const std::vector<StudyConfig>& configs,
                      std::string_view name) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string cpu_label(sim::LogicalCpu cpu, bool ht_on,
                      const sim::Topology& topo) {
  // Built via += rather than `"A" + std::to_string(...)`: GCC 12's
  // -Wrestrict misfires on operator+(const char*, string&&) at -O3
  // (GCC PR105651), and the -Werror CI build must stay clean.
  std::string label(1, ht_on ? 'A' : 'B');
  label += std::to_string(ht_on ? topo.flat(cpu)
                                : topo.core_id(cpu.chip, cpu.core));
  return label;
}

}  // namespace paxsim::harness
