// paxsim/sim/machine.hpp
//
// The whole platform, built from a Topology description (sim/topology.hpp):
// packages ("chips") with cores and SMT contexts, a per-package link
// (front-side bus or point-to-point), one memory controller per NUMA node,
// and the coherence directory.  The directory tracks *coherence domains* —
// one per owner of an outermost cache instance: every core on the default
// private-L2 Paxville machine, every chip when the outermost level is
// chip-shared (shared-L2 or L3 topologies).  `MachineParams{}` (no topology
// attached) builds the calibrated Paxville machine, bit-identical to the
// pre-topology simulator (test-enforced).
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
#include <unordered_map>
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
  /// @param program_index  0-based program slot; each slot owns a 1-TiB
  ///        window of the simulated address space.
  explicit AddressSpace(int program_index)
      : base_((static_cast<Addr>(program_index) + 1) << 40), next_(base_) {}

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
    return base_ + (static_cast<Addr>(1) << 39);
  }

  [[nodiscard]] Addr data_base() const noexcept { return base_; }
  [[nodiscard]] std::size_t bytes_allocated() const noexcept {
    return static_cast<std::size_t>(next_ - base_);
  }

 private:
  Addr base_;
  Addr next_;
};

/// The simulated SMP, shaped by `MachineParams::resolved_topology()`.
class Machine {
 public:
  /// Builds the machine.  Throws std::invalid_argument when the resolved
  /// topology fails Topology::validate_for_sim (the CLI validates earlier
  /// and reports the reason; this is the last line of defence).
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
    return *cores_[chip_idx * params_.cores_per_chip + core_idx];
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
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

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
    double base =
        static_cast<double>(topo_.nodes[static_cast<std::size_t>(node)].latency);
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

  /// Cold restart for a new trial: caches, TLBs, predictors, buses,
  /// directory and context clocks all cleared.
  void reset() noexcept;

  // ---- coherence (called by Core) -----------------------------------------
  /// Computes the MESI state for a fill of @p line_addr into @p filler_core,
  /// performing remote downgrades/invalidations.  @p ctx is the requester
  /// (events such as remote writebacks are charged to it).
  LineState coherent_fill(int filler_core, Addr line_addr, bool is_store,
                          HwContext& ctx) noexcept;
  /// Records that @p core_id's domain no longer holds @p line_addr in its
  /// outermost cache.
  void on_l2_evict(int core_id, Addr line_addr) noexcept;
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
    return chip_domains_
               ? *chip_caches_[static_cast<std::size_t>(d)]
               : cores_[static_cast<std::size_t>(d)]->outer_cache();
  }
  /// True when domains are per-chip (shared outermost level).
  [[nodiscard]] bool chip_domains() const noexcept { return chip_domains_; }

  /// Directory introspection (tests): bitmask of *domains* holding @p line
  /// (domain == core on the default private-L2 machine).
  [[nodiscard]] unsigned holders_of(Addr line_addr) const noexcept;

  /// Full directory content, one (line address, holder bitmask) pair per
  /// tracked line — the invariant checker cross-audits it against the
  /// outermost caches.
  [[nodiscard]] std::vector<std::pair<Addr, unsigned>> directory_snapshot()
      const;

  // ---- analysis hooks (src/check/) ----------------------------------------
  /// Attaches/detaches the event-stream observer.  Only reference-path code
  /// consults it (see sim/hooks.hpp); pass nullptr to detach.  The sink is
  /// not owned and must outlive its attachment.  Each core caches the
  /// pointer so per-access call sites skip the machine indirection.
  void set_trace_sink(TraceSink* sink) noexcept {
    sink_ = sink;
    for (auto& c : cores_) c->set_trace_sink(sink);
  }
  [[nodiscard]] TraceSink* trace_sink() const noexcept { return sink_; }

 private:
  /// Invalidates @p line_addr everywhere inside domain @p d; returns true
  /// when the outermost copy was dirty (implicit writeback needed).
  bool invalidate_domain(int d, Addr line_addr) noexcept;
  /// Downgrades @p line_addr to Shared inside domain @p d; returns true
  /// when the outermost copy was dirty.
  bool downgrade_domain(int d, Addr line_addr) noexcept;

  MachineParams params_;
  Topology topo_;
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

  std::unordered_map<Addr, std::uint32_t> directory_;
  TraceSink* sink_ = nullptr;
};

}  // namespace paxsim::sim
