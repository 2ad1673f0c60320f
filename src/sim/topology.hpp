// paxsim/sim/topology.hpp
//
// First-class machine topology: a declarative description of the hardware
// sharing structure the paper's contention taxonomy is about — how many
// packages/cores/SMT contexts exist, which cache level is private to what
// (per-context, per-core, per-chip), where the memory controllers live
// (one shared controller vs. NUMA nodes), and how packages reach memory
// (a front-side bus per package vs. point-to-point links).
//
// A Topology is also the machine's calibration: every level's load-to-use
// latency, the link occupancies, each node's DRAM latency and controller
// occupancies.  sim::MachineParams carries one by value, `paxville()` by
// default — the one place the paper's calibrated values are written — and
// `Machine` builds its whole hierarchy from it.
//
// Topologies are plain data: constructed from the built-in presets
// (`paxville`, `paxville-noht`, `woodcrest`, `numa16`), parsed from a
// schema_version'd JSON description, or assembled in code.  `validate()`
// rejects descriptions that cannot be a machine (zero-way caches,
// non-power-of-two line sizes, orphan NUMA nodes, empty packages);
// `validate_for_sim()` additionally narrows to the shapes the timing
// simulator implements (2-3 data levels, innermost per-core).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace paxsim::sim {

/// Which contexts share one instance of a resource.  This is the paper's
/// contention axis: per-context resources never contend, per-core resources
/// contend between SMT siblings (Section 4's HT losses), per-chip resources
/// contend between cores of a package (the FSB wall of MG/SP).
enum class SharingScope : std::uint8_t {
  kPerContext,  ///< one instance per SMT context (e.g. architectural state)
  kPerCore,     ///< shared by a core's SMT contexts (Paxville L1/L2)
  kPerChip,     ///< shared by every core on a package (Woodcrest L2, L3s)
};

/// How packages reach the memory nodes.
enum class Interconnect : std::uint8_t {
  kSharedFsb,      ///< one front-side bus per package into shared controllers
  kPointToPoint,   ///< per-package links (HyperTransport/QPI-like)
};

[[nodiscard]] const char* sharing_scope_name(SharingScope s) noexcept;
[[nodiscard]] const char* interconnect_name(Interconnect i) noexcept;

/// One cache level of the hierarchy, innermost first.
struct TopoCacheLevel {
  std::string name;                            ///< "L1D", "L2", "L3"
  CacheGeometry geometry;                      ///< capacity / line / ways
  SharingScope scope = SharingScope::kPerCore;
  Cycle latency = 0;                           ///< load-to-use on a hit
};

/// One NUMA memory node: a controller with its own occupancy calibration
/// and uncontended latency, home to one or more packages.
struct MemNode {
  Cycle latency = 0;             ///< load-to-use, DRAM on this node
  double read_occupancy = 0;     ///< controller cycles per line read
  double write_occupancy = 0;    ///< additional cycles per line written
  std::vector<int> home_packages;///< packages local to this node
};

/// A complete machine description.  Default-constructed Topology is NOT a
/// machine (no levels/nodes); use the presets or parse_json.
struct Topology {
  std::string name = "custom";
  int packages = 1;
  int cores_per_package = 1;
  int smt_per_core = 1;
  Interconnect interconnect = Interconnect::kSharedFsb;
  double link_read_occupancy = 0;      ///< package-link cycles per line read
  double link_write_occupancy = 0;     ///< package-link cycles per line written
  Cycle remote_node_extra_latency = 0; ///< added when crossing to a remote node
  std::vector<TopoCacheLevel> levels;  ///< data-cache levels, innermost first
  std::vector<MemNode> nodes;          ///< memory nodes (>= 1)

  // -- Derived arithmetic: the one place package/core/context products live.
  [[nodiscard]] int total_cores() const noexcept {
    return packages * cores_per_package;
  }
  [[nodiscard]] int total_contexts() const noexcept {
    return total_cores() * smt_per_core;
  }
  [[nodiscard]] int contexts_per_chip() const noexcept {
    return cores_per_package * smt_per_core;
  }
  /// Global physical-core index of (chip, core).
  [[nodiscard]] int core_id(int chip, int core) const noexcept {
    return chip * cores_per_package + core;
  }
  /// Dense context number of a logical CPU, chip-major as the Linux kernel
  /// enumerated them (Figure 1's A0..A7 on the paper's machine): the one
  /// place it is computed, for every per-context slot, tid and label.
  [[nodiscard]] int flat(const LogicalCpu& cpu) const noexcept {
    return (cpu.chip * cores_per_package + cpu.core) * smt_per_core +
           cpu.context;
  }
  /// Inverse of flat().
  [[nodiscard]] LogicalCpu unflat(int index) const noexcept {
    const int ctx = index % smt_per_core;
    const int core = (index / smt_per_core) % cores_per_package;
    const int chip = index / (smt_per_core * cores_per_package);
    return LogicalCpu{static_cast<std::uint8_t>(chip),
                      static_cast<std::uint8_t>(core),
                      static_cast<std::uint8_t>(ctx)};
  }

  /// True when the topology has a level shared between the cores of a chip
  /// (a per-chip data cache).
  [[nodiscard]] bool has_chip_shared_cache() const noexcept;

  // -- Validation.
  /// Structural validity: positive counts, power-of-two cache lines,
  /// non-zero ways, monotonically non-shrinking levels outward, every
  /// package homed by exactly one node, no orphan nodes (a node homing no
  /// package), at least one level and one node.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;
  /// validate() plus the narrower shape contract of the timing simulator:
  /// 2 or 3 data levels; innermost per-core; a 3-level hierarchy's middle
  /// level per-core and outer level per-chip; per-context data caches are
  /// schema-valid (the model can reason about them) but not simulatable.
  [[nodiscard]] bool validate_for_sim(std::string* error = nullptr) const;

  /// Compact identity string covering every simulation-relevant field;
  /// distinct machines can never fingerprint equal.  Used by the harness
  /// CellKey and machine-pool keys.
  [[nodiscard]] std::string fingerprint() const;

  // -- JSON (schema_version'd, kind "topology").
  [[nodiscard]] std::string to_json() const;
  /// Parses and validate()s @p text.  On failure returns false and, when
  /// @p error is non-null, a one-line reason.
  static bool parse_json(std::string_view text, Topology* out,
                         std::string* error);

  // -- Presets.
  static Topology paxville();       ///< the paper's calibrated dual-core SMP
  static Topology paxville_noht();  ///< Paxville with Hyper-Threading fused off
  static Topology woodcrest();      ///< shared-L2 dual-core, no SMT
  static Topology numa16();         ///< 4-socket NUMA, 4 cores/socket, L3
  static std::optional<Topology> from_preset(std::string_view name);
  static const std::vector<std::string>& preset_names();

  /// Resolves a machine spec — a preset name, else a path to a topology
  /// JSON file — into a simulation-ready (validate_for_sim-clean) machine.
  /// The one resolution path behind the CLI's and the bench artifacts'
  /// `--machine=` flags.  On failure returns false and, when @p error is
  /// non-null, a one-line reason naming the spec.
  static bool resolve(const std::string& spec, Topology* out,
                      std::string* error = nullptr);
};

}  // namespace paxsim::sim
