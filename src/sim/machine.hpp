// paxsim/sim/machine.hpp
//
// The whole platform, built from a Topology description (sim/topology.hpp):
// packages ("chips") with cores and SMT contexts, a per-package link
// (front-side bus or point-to-point) and one memory controller per NUMA
// node.  Coherence snoops the outer caches, as the paper's machine snoops
// its shared FSB: a fill or store upgrade asks every other *coherence
// domain* — one per owner of an outermost cache instance: every core on the
// default private-L2 Paxville machine, every chip when the outermost level
// is chip-shared (shared-L2 or L3 topologies) — whether its outer cache
// holds the line.  The Topology is MachineParams::topology, the calibrated
// Paxville machine of `MachineParams{}` unless another one is set; every
// core, link and memory controller is built from its levels, links and
// nodes.
//
// The Machine is constructed from MachineParams and is reusable across
// trials via reset(): a reset machine is bit-identical, in every observable
// counter and timing, to a freshly constructed one (the harness MachinePool
// and the engine determinism tests rely on this).  Hardware-context
// enablement (HT on/off, the kernel's `maxcpus=` masking of Table 1) is a
// property of the *study configuration*, not the machine: the harness simply
// binds threads only to allowed contexts.
//
// Threading: a Machine is confined to one host thread at a time; the
// harness dispatches concurrent trials by giving each worker thread its own
// pooled Machine, never by sharing one.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/core.hpp"
#include "sim/hooks.hpp"
#include "sim/memsys.hpp"
#include "sim/params.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace paxsim::sim {

/// Per-program bump allocator carving disjoint regions out of the simulated
/// physical address space, so that co-scheduled programs interfere in the
/// caches exactly as distinct working sets do (and never falsely share).
class AddressSpace {
 public:
  /// Each program slot owns a window of 2^kWindowBits bytes (1 TiB).
  static constexpr unsigned kWindowBits = 40;
  /// Slots 0 .. kMaxPrograms-1 have windows inside the caches' supported
  /// range, below 2^SetAssocCache::kAddrBits (slot k owns window k + 1).
  static constexpr int kMaxPrograms =
      (1 << (SetAssocCache::kAddrBits - kWindowBits)) - 1;

  /// @param program_index  0-based program slot.  Throws
  ///        std::invalid_argument for a slot outside [0, kMaxPrograms).
  explicit AddressSpace(int program_index)
      : base_(window_base(program_index)), next_(base_) {}

  /// Allocates @p bytes aligned to @p align (power of two), never freed.
  [[nodiscard]] Addr alloc(std::size_t bytes, std::size_t align = 64) noexcept {
    next_ = (next_ + (align - 1)) & ~static_cast<Addr>(align - 1);
    const Addr a = next_;
    next_ += bytes;
    return a;
  }

  /// Base address of this program's code segment (for the trace cache and
  /// ITLB model), disjoint from the data window.
  [[nodiscard]] Addr code_base() const noexcept {
    return base_ + (static_cast<Addr>(1) << (kWindowBits - 1));
  }

  [[nodiscard]] Addr data_base() const noexcept { return base_; }

 private:
  static Addr window_base(int program_index) {
    if (program_index < 0 || program_index >= kMaxPrograms) {
      throw std::invalid_argument(
          "paxsim: program slot " + std::to_string(program_index) +
          " is outside 0.." + std::to_string(kMaxPrograms - 1));
    }
    return (static_cast<Addr>(program_index) + 1) << kWindowBits;
  }

  Addr base_;
  Addr next_;
};

/// The simulated SMP, shaped by `MachineParams::topology`.
class Machine {
 public:
  /// Builds the machine.  Throws std::invalid_argument when the topology
  /// fails Topology::validate_for_sim (the CLI validates earlier and
  /// reports the reason; this is the last line of defence).
  explicit Machine(const MachineParams& p);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineParams& params() const noexcept { return params_; }

  /// Hardware context at topology position @p cpu.
  [[nodiscard]] HwContext& context(LogicalCpu cpu) noexcept {
    return core(cpu.chip, cpu.core).context(cpu.context);
  }

  /// Core @p core_idx of chip @p chip_idx.
  [[nodiscard]] Core& core(int chip_idx, int core_idx) noexcept {
    return *cores_[topology().core_id(chip_idx, core_idx)];
  }
  [[nodiscard]] Core& core_by_id(int global_id) noexcept {
    return *cores_[global_id];
  }
  [[nodiscard]] const Core& core_by_id(int global_id) const noexcept {
    return *cores_[global_id];
  }

  [[nodiscard]] FrontSideBus& bus(int chip_idx) noexcept {
    return buses_[static_cast<std::size_t>(chip_idx)];
  }
  /// Memory controller of node 0 (the only one on single-node topologies).
  [[nodiscard]] MemoryController& controller() noexcept { return mcs_[0]; }
  /// Memory controller of NUMA node @p node.
  [[nodiscard]] MemoryController& controller(int node) noexcept {
    return mcs_[static_cast<std::size_t>(node)];
  }

  /// The topology this machine was built from.
  [[nodiscard]] const Topology& topology() const noexcept {
    return params_.topology;
  }

  // ---- memory path (called by Core) ----------------------------------------
  /// Line read from @p chip_idx at time @p t: link backlog + the home
  /// node's controller backlog + that node's (possibly remote) latency.
  [[nodiscard]] double memory_read(int chip_idx, Addr line_addr,
                                   double t) noexcept {
    const int node = node_of_line(line_addr);
    return buses_[static_cast<std::size_t>(chip_idx)].read_via(
        t, mcs_[static_cast<std::size_t>(node)],
        memory_base_latency(chip_idx, line_addr));
  }
  /// Asynchronous line writeback from @p chip_idx at time @p t.
  void memory_write(int chip_idx, Addr line_addr, double t) noexcept {
    buses_[static_cast<std::size_t>(chip_idx)].write_via(
        t, mcs_[static_cast<std::size_t>(node_of_line(line_addr))]);
  }
  /// Uncontended load-to-use latency of @p line_addr's home node as seen
  /// from @p chip_idx (node latency, plus the remote surcharge when the
  /// node is not local to the chip).
  [[nodiscard]] double memory_base_latency(int chip_idx,
                                           Addr line_addr) const noexcept {
    const int node = node_of_line(line_addr);
    double base = static_cast<double>(
        topology().nodes[static_cast<std::size_t>(node)].latency);
    if (home_node_[static_cast<std::size_t>(chip_idx)] != node) {
      base += remote_extra_;
    }
    return base;
  }
  /// Home NUMA node of @p line_addr: node 0 on single-node machines,
  /// page-interleaved (4 KiB granules) across nodes otherwise.
  [[nodiscard]] int node_of_line(Addr line_addr) const noexcept {
    const std::size_t n = mcs_.size();
    return n == 1 ? 0 : static_cast<int>((line_addr >> 12) % n);
  }

  /// Wall-clock virtual time: max clock over all contexts.
  [[nodiscard]] double wall_time() const noexcept;

  /// Cold restart for a new trial: caches, TLBs, predictors, buses and
  /// context clocks all cleared.
  void reset() noexcept;

  // ---- coherence (called by Core) -----------------------------------------
  /// Computes the MESI state for a fill of @p line_addr into @p filler_core,
  /// performing remote downgrades/invalidations.  @p ctx is the requester
  /// (events such as remote writebacks are charged to it).
  LineState coherent_fill(int filler_core, Addr line_addr, bool is_store,
                          HwContext& ctx) noexcept;
  /// Store hit on a Shared line: invalidate all remote copies.
  void store_upgrade(int core_id, Addr line_addr, HwContext& ctx) noexcept;

  // ---- coherence domains ----------------------------------------------------
  /// One domain per owner of an outermost cache instance: per core on
  /// private-outer topologies (the default), per chip when the outermost
  /// level is chip-shared.
  [[nodiscard]] int domain_count() const noexcept { return domain_count_; }
  /// Global core ids belonging to domain @p d.
  [[nodiscard]] const std::vector<int>& domain_cores(int d) const noexcept {
    return domain_cores_[static_cast<std::size_t>(d)];
  }
  /// The outermost cache instance owned by domain @p d.
  [[nodiscard]] const SetAssocCache& domain_outer_cache(int d) const noexcept {
    return *outer_[static_cast<std::size_t>(d)];
  }
  /// True when domains are per-chip (shared outermost level).
  [[nodiscard]] bool chip_domains() const noexcept { return chip_domains_; }

  /// Bitmask of the *domains* whose outer cache holds @p line_addr (domain
  /// == core on the default private-L2 machine): what a snoop would see.
  [[nodiscard]] unsigned holders_of(Addr line_addr) const noexcept;

  // ---- observer hooks (sim/hooks.hpp) --------------------------------------
  /// Attaches/detaches the event-stream observer.  Only reference-path code
  /// consults it (see sim/hooks.hpp), so every core takes the reference
  /// path while a sink is attached; pass nullptr to detach.  The sink is
  /// not owned and must outlive its attachment.  Each core caches the
  /// pointer so per-access call sites skip the machine indirection.
  /// A machine carries one sink: attaching one while a different one is
  /// attached throws std::logic_error and leaves the first attached
  /// (detaching never throws).
  void set_trace_sink(TraceSink* sink);
  [[nodiscard]] TraceSink* trace_sink() const noexcept { return sink_; }

 private:
  /// Invalidates @p line_addr everywhere inside domain @p d; returns true
  /// when the outermost copy was dirty (implicit writeback needed).
  bool invalidate_domain(int d, Addr line_addr) noexcept;
  /// Downgrades @p line_addr to Shared inside domain @p d; returns true
  /// when the outermost copy was dirty.
  bool downgrade_domain(int d, Addr line_addr) noexcept;
  /// Invalidates @p line_addr in every domain but @p self_d whose outer
  /// cache holds it, charging the invalidations and any dirty writebacks
  /// to @p ctx.
  void invalidate_remote(int self_d, Addr line_addr, HwContext& ctx) noexcept;

  MachineParams params_;
  std::vector<MemoryController> mcs_;  ///< one per NUMA node
  std::vector<int> home_node_;         ///< package -> local node index
  double remote_extra_ = 0;            ///< Topology::remote_node_extra_latency
  std::vector<FrontSideBus> buses_;    ///< one per package
  /// Chip-shared outermost caches (shared-L2 or L3 topologies); empty when
  /// every core owns its outer level.
  std::vector<std::unique_ptr<SetAssocCache>> chip_caches_;
  std::vector<std::unique_ptr<Core>> cores_;

  bool chip_domains_ = false;
  int domain_count_ = 0;
  std::vector<int> domain_of_core_;
  std::vector<std::vector<int>> domain_cores_;
  std::vector<int> domain_chip_;
  std::vector<const SetAssocCache*> outer_;  ///< domain -> its outer cache

  TraceSink* sink_ = nullptr;
};

}  // namespace paxsim::sim
