// paxsim/sim/params.hpp
//
// Machine parameterisation.  `MachineParams` carries the machine's
// sim::Topology (sim/topology.hpp) by value: the packages, cores and SMT
// contexts, every cache level's geometry, sharing scope and latency, the
// package links and the memory nodes.  The calibrated values of the paper's
// Section 3 machine — a Dell PowerEdge 2850 with two dual-core 2.8 GHz
// Hyper-Threaded Intel Xeon (Paxville) packages, a 16 KB L1D and a private
// 2 MB L2 per core, one front-side bus per package and dual-channel DDR-2
// memory — are written once, in Topology::paxville(), which is the
// default.  The fields below describe what the topology does not: the
// clock, the per-core front end and TLBs (shared by a core's two contexts),
// the issue and memory-level-parallelism model, the prefetcher, and whether
// the simulator may take its inlined fast path.  Nothing here says who
// observes a run: a machine takes the reference path exactly while a
// sim::TraceSink is attached (sim/hooks.hpp), whatever the sink is.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace paxsim::sim {

/// Which runtime analyses (src/check/) observe a run.  Any mode other than
/// kOff attaches a check::Checker, whose attachment sends the machine down
/// the reference path; kOff attaches nothing and costs nothing.
enum class CheckMode : std::uint8_t {
  kOff,         ///< no analysis; the default
  kRace,        ///< happens-before data-race detection only
  kInvariants,  ///< machine-state invariant auditing only
  kFull,        ///< both analyses
};

/// Stable lowercase name ("off", "race", "invariants", "full").
[[nodiscard]] const char* check_mode_name(CheckMode m) noexcept;

/// Parses a check-mode name; returns true on success.
bool parse_check_mode(const char* s, CheckMode& out) noexcept;

/// Which tracing layers (src/trace/) a traced run records: the depth a
/// trace::Tracer is built with.  Only a run that attaches a tracer reads
/// it; kOff leaves the run untouched (bit-identical, test-enforced).
enum class TraceMode : std::uint8_t {
  kOff,     ///< no tracing; the default
  kStacks,  ///< CPI stall-attribution stacks only
  kEvents,  ///< ring-buffered event recording only
  kFull,    ///< both
};

/// Stable lowercase name ("off", "stacks", "events", "full").
[[nodiscard]] const char* trace_mode_name(TraceMode m) noexcept;

/// Parses a trace-mode name; returns true on success.
bool parse_trace_mode(const char* s, TraceMode& out) noexcept;

/// Every tunable of the simulated machine.  `MachineParams{}` is the
/// calibrated Paxville SMP; `scaled()` shrinks capacities together with the
/// workload classes so that class-B cache-pressure regimes are preserved at
/// tractable simulation cost (working-set / capacity ratios are invariant).
struct MachineParams {
  /// The machine's shape and its cache, link and memory calibration: cache
  /// levels innermost first, each with its geometry, sharing scope and
  /// load-to-use latency; per-package link occupancies; memory nodes with
  /// their DRAM latency and controller occupancies.
  Topology topology = Topology::paxville();

  double clock_ghz = 2.8;     ///< core clock

  // ---- per-core front end and TLBs (shared by that core's SMT contexts) ---
  std::size_t trace_cache_uops = 12 * 1024; ///< trace cache capacity in uops
  std::size_t trace_uops_per_line = 6;      ///< uops per trace line
  std::size_t trace_cache_ways = 8;         ///< trace cache associativity
  /// NetBurst MT mode statically halves the trace cache per context.
  bool trace_mt_static_partition = true;
  std::size_t itlb_entries = 128;           ///< instruction TLB entries
  std::size_t itlb_ways = 16;               ///< ITLB associativity
  std::size_t dtlb_entries = 64;            ///< data TLB entries
  std::size_t dtlb_ways = 16;               ///< DTLB associativity
  std::size_t page_bytes = 4096;            ///< page size

  // ---- penalties (cycles) --------------------------------------------------
  Cycle tlb_walk_penalty = 30; ///< page-walk stall per TLB miss
  Cycle mispredict_penalty = 30; ///< pipeline flush (31-stage Prescott pipe)
  Cycle trace_miss_penalty = 10; ///< decode path per missing trace line

  // ---- issue model ---------------------------------------------------------
  /// Cycles one context needs per uop when it has the core to itself.
  /// 0.75 cyc/uop = 1.33 uops/cycle sustained, in line with measured NPB IPC
  /// on the NetBurst core.
  double cycles_per_uop = 0.75;
  /// Multiplier on `cycles_per_uop` for each context when both contexts of a
  /// core are active (Hyper-Threading).  2.25 means two FP-saturated
  /// contexts together sustain *less* (2/2.25 = 0.89x) than one alone — the
  /// NetBurst MT-mode reality for issue-bound code (partitioned uop queue,
  /// replay storms; Tuck & Tullsen observed outright slowdowns).  Hyper-
  /// Threading's real benefit therefore comes from overlapping one
  /// context's memory stalls with the other's execution, which this model
  /// produces naturally: stalls advance only the stalled context's clock.
  /// This is what makes latency-bound CG the one benchmark that still wins
  /// at full HT load while issue-bound FT/BT lose — the paper's Figure 3.
  double smt_issue_stretch = 2.25;

  // ---- memory-level parallelism --------------------------------------------
  /// Fraction of the L2-hit latency exposed for an *independent* load (an
  /// out-of-order window hides the rest).  Chained loads expose it fully.
  double l2_overlap = 0.35;
  /// Fraction of the DRAM latency exposed for an independent load.
  double mem_overlap = 0.38;
  /// Fraction of the miss latency exposed for stores (store buffer drains
  /// mostly off the critical path).
  double store_overlap = 0.12;

  /// MT-mode (both contexts active) variants of the overlap factors.
  /// NetBurst statically partitions the load/store buffers and the ROB
  /// between the two contexts, halving each thread's memory-level
  /// parallelism: independent-miss streams expose more of their latency.
  /// Chained loads are unaffected (they were fully exposed already), which
  /// is precisely why the paper finds the irregular, latency-bound CG to be
  /// the one application that still profits from HT at full machine load.
  double mt_l2_overlap = 0.50;
  double mt_mem_overlap = 0.55;
  double mt_store_overlap = 0.18;

  // ---- prefetcher ----------------------------------------------------------
  int prefetch_streams = 16;        ///< stream-table entries per core
  int prefetch_depth = 8;           ///< lines fetched ahead per trigger (covers
                                    ///< the 383-cycle DRAM latency at ~50-cycle
                                    ///< line spacing)
  int prefetch_trigger = 2;         ///< consecutive stride hits to arm
  double prefetch_bus_threshold = 0.95; ///< max recent bus utilisation to prefetch

  // ---- front-end / code layout ---------------------------------------------
  std::size_t code_block_bytes = 256; ///< average static footprint per block

  // ---- simulator execution (not a property of the modelled machine) --------
  /// Enables the core's inlined L1-hit/DTLB-hit fast path while no sink is
  /// attached (Core::set_trace_sink turns it off for as long as one is, so
  /// the sink sees every access).  Results are bit-identical either way —
  /// the fast path replays exactly the state effects the out-of-line path
  /// would have (enforced by the differential tests); the reference path
  /// exists to prove that, to feed observers and to debug against.
  /// Building with -DPAXSIM_REFERENCE_PATH=ON flips the default to false.
#ifdef PAXSIM_REFERENCE_PATH
  bool fast_path = false;
#else
  bool fast_path = true;
#endif

  /// Returns a copy with all capacity-like quantities divided by @p factor
  /// (latencies, bandwidth-per-cycle and issue parameters untouched): each
  /// of the topology's cache levels, the trace cache and the TLBs.
  /// Associativities are preserved; capacities and entry counts are floored
  /// at one line (entry) per way so structures stay well-formed.
  [[nodiscard]] MachineParams scaled(double factor) const;
};

}  // namespace paxsim::sim
