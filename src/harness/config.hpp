// paxsim/harness/config.hpp
//
// The study configurations of the paper's Table 1 — the eight ways of
// exposing the PowerEdge 2850's hardware contexts via Hyper-Threading
// enable/disable plus `maxcpus=` masking, with Figure 1's A0..A7 / B0..B3
// context labelling.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace paxsim::sim {
struct Topology;
}

namespace paxsim::harness {

/// The multithreaded architecture each configuration realises (Table 1's
/// right-hand column).
enum class Architecture {
  kSerial,
  kSMT,        ///< HT on  -2-1: two contexts of one core
  kCMP,        ///< HT off -2-1: two cores of one chip
  kCMT,        ///< HT on  -4-1: one chip, both cores, HT on
  kSMP,        ///< HT off -2-2: one core on each chip
  kSmtSmp,     ///< HT on  -4-2: one HT core on each chip
  kCmpSmp,     ///< HT off -4-2: all four cores
  kCmtSmp,     ///< HT on  -8-2: everything
};

[[nodiscard]] std::string_view architecture_name(Architecture a) noexcept;

/// One row of Table 1.
struct StudyConfig {
  std::string name;        ///< paper terminology, e.g. "HT on -4-1"
  Architecture arch = Architecture::kSerial;
  bool ht_on = false;      ///< Hyper-Threading state
  int threads = 1;         ///< application threads
  int chips = 1;           ///< physical packages used
  std::vector<sim::LogicalCpu> cpus;  ///< the hardware contexts, in order

  [[nodiscard]] bool is_serial() const noexcept {
    return arch == Architecture::kSerial;
  }
};

/// All Table-1 configurations, serial first, in the paper's group order:
/// configs_for(sim::Topology::paxville()), built once.
[[nodiscard]] const std::vector<StudyConfig>& all_configs();

/// The Serial baseline row of Table 1 — the reference point every speedup
/// in the study is computed against.
[[nodiscard]] const StudyConfig& serial_config();

/// The seven multithreaded configurations (Table 1 minus serial).
[[nodiscard]] std::vector<StudyConfig> parallel_configs();

/// Finds a configuration by its paper name ("HT on -4-1"); nullptr if absent.
[[nodiscard]] const StudyConfig* find_config(std::string_view name);

/// The Table-1 analogue for an arbitrary topology: Serial first (always —
/// serial_config() relies on it), then the same HT-pair / one-chip /
/// one-core-per-chip / everything ladder the paper enumerates, with each
/// rung present only when the topology has the hardware for it (SMT rungs
/// need smt_per_core > 1, multi-chip rungs need more than one package).  On
/// the Paxville shape this is Table 1.
[[nodiscard]] std::vector<StudyConfig> configs_for(const sim::Topology& topo);

/// Finds a configuration of @p topo by name; nullopt-style nullptr-free
/// lookup is not needed here — returns the config list position or -1.
[[nodiscard]] int find_config_index(const std::vector<StudyConfig>& configs,
                                    std::string_view name);

/// Figure-1 label of a hardware context under the given HT state: the
/// A-label numbers contexts by @p topo's flat(), the B-label numbers
/// physical cores by its core_id() ("A0".."A7" / "B0".."B3" on Paxville).
[[nodiscard]] std::string cpu_label(sim::LogicalCpu cpu, bool ht_on,
                                    const sim::Topology& topo);

}  // namespace paxsim::harness
