// paxsim/sim/core.hpp
//
// One physical core with its SMT hardware contexts (two on the default
// Paxville machine; the count comes from the topology).  Per-core (shared by
// the core's contexts): L1D, an L2 that is private on Paxville but may be
// chip-shared or backed by a chip-shared L3 on other topologies (the
// topology's levels decide, and Machine passes the chip's shared cache in
// at construction), trace cache, ITLB, DTLB, branch-predictor pattern
// table, execution units and the stream prefetcher.  Per-context
// (architectural): the virtual clock, stall accounting, branch history, and
// the binding to a program's counter set.
//
// Timing model
// ------------
//   * Issue: every uop costs `cycles_per_uop`, stretched by
//     `smt_issue_stretch` while both contexts of the core are active — the
//     Hyper-Threading execution-unit sharing penalty.
//   * Loads: a chained (pointer-chase) load exposes the full load-to-use
//     latency of the level it hits in; an independent load exposes only the
//     `*_overlap` fraction (the out-of-order window hides the rest).
//   * Stores: write-allocate; miss latency weighted by `store_overlap`
//     (store buffer).  Dirty evictions post writebacks on the package bus.
//   * Branch mispredicts, TLB walks and trace-cache rebuild each charge
//     their own stall category, so "% stalled" decomposes exactly as the
//     paper's PMU data does.
//
// Hot path (see docs/ARCHITECTURE.md, "The hot path")
// ---------------------------------------------------
// load()/store() are inlined here and keep a small per-context table of
// "last line / last page" registers: an access whose line and page were both
// served before revalidates the cached L1/DTLB handles and replays exactly
// the state effects the out-of-line Core::access_memory path would have —
// never entering it.  High-frequency events (instructions, L1D/DTLB/ITLB/
// trace-cache references) accumulate in plain context-local integers and
// are folded into the bound CounterSet wherever flush_accumulators()
// already runs (and on rebind).  Both mechanisms are bit-identity
// preserving; `MachineParams::fast_path = false` (or building with
// -DPAXSIM_REFERENCE_PATH=ON) forces every access through the reference
// path, which the differential tests compare against, and so does an
// attached TraceSink while it stays attached.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perf/counters.hpp"
#include "sim/branch.hpp"
#include "sim/cache.hpp"
#include "sim/params.hpp"
#include "sim/prefetcher.hpp"
#include "sim/tlb.hpp"
#include "sim/trace_cache.hpp"
#include "sim/types.hpp"

namespace paxsim::sim {

class Core;
class Machine;
class TraceSink;

/// One SMT hardware context (a "logical processor" in the paper's Figure 1).
/// This is the handle instrumented kernels execute against.
class HwContext {
 public:
  HwContext() = default;

  /// Binds this context to a program: all events are charged to
  /// @p counters and code addresses are based at @p code_base.  Pending
  /// batched events are flushed to the previously bound counter set first,
  /// so attribution across rebinds is exact.
  void bind(perf::CounterSet* counters, Addr code_base) noexcept {
    if (counters_ != nullptr && counters_ != counters) flush_event_counts();
    counters_ = counters;
    code_base_ = code_base;
    clear_fast_entries();
  }

  /// True if a program is currently bound.
  [[nodiscard]] bool bound() const noexcept { return counters_ != nullptr; }

  /// Virtual time of this context, in (fractional) core cycles.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Jumps the clock forward (barrier release, region join).  Time skipped
  /// this way is idle, not execution, and is not charged to any counter.
  void set_now(double t) noexcept {
    if (t > now_) now_ = t;
  }

  /// Executes @p uops ALU/FP uops.
  void alu(std::uint32_t uops) noexcept;

  /// Executes one load of the word at @p addr.
  void load(Addr addr, Dep dep = Dep::kIndependent) noexcept;

  /// Executes one store to the word at @p addr.
  void store(Addr addr, Dep dep = Dep::kIndependent) noexcept;

  /// Executes one conditional branch at static site @p site with outcome
  /// @p taken.
  void branch(std::uint32_t site, bool taken) noexcept;

  /// Front-end fetch of static code block @p block (@p uops decoded uops)
  /// through the trace cache and ITLB.  Call once per dynamic execution of
  /// the block; the uops themselves are charged by alu()/load()/store().
  /// Inlined: a repeat of the last block whose ITLB entry and trace lines
  /// are all still resident replays the all-hit fetch without the
  /// out-of-line walk (see the hot-path note above).
  void exec_block(BlockId block, std::uint32_t uops) noexcept;

  /// Folds the fractional busy/stall accumulators into the bound counter
  /// set (kCycles and the four stall categories) and flushes the batched
  /// event counts.  The runtime calls this at the end of every parallel
  /// region and at program completion.
  void flush_accumulators() noexcept;

  /// This context's position in the machine.
  [[nodiscard]] LogicalCpu id() const noexcept { return id_; }

  /// Static id of the code block most recently fetched through the
  /// reference front-end path (exec_block_slow) — the analysis layer's
  /// "program counter" when attributing accesses.  Every fetch takes the
  /// reference path while a sink is attached, so this is exact there.
  [[nodiscard]] BlockId last_block() const noexcept { return last_block_; }

  /// The core this context belongs to.
  [[nodiscard]] Core& core() const noexcept { return *core_; }

  /// Cycles of pure execution (busy + stalls) since the last reset, i.e.
  /// excluding idle time introduced by set_now().
  [[nodiscard]] double execution_cycles() const noexcept {
    return executed_total_;
  }

  /// Charges @p cycles of operating-system overhead (context-switch cost on
  /// migration): time passes and counts as busy execution, but retires no
  /// instructions — OS overhead inflates CPI, as on real hardware.
  void os_overhead(double cycles) noexcept { advance_busy(cycles); }

  /// Clears clock, accumulators, fast-path registers and branch history
  /// (new trial).
  void reset() noexcept;

 private:
  friend class Core;
  friend class Machine;

  /// One "last line / last page" register of the inlined fast path: the
  /// L1-line address it covers plus revalidatable handles to the L1 line
  /// and the DTLB entry that served it.  `line` uses an all-ones sentinel
  /// (no real line address has all low bits set after alignment), so an
  /// empty register can never match.
  struct FastEntry {
    Addr line = ~Addr{0};
    SetAssocCache::LineRef l1;
    SetAssocCache::LineRef tlb;
    /// Generation slot of the L1 set holding `line` (stable pointer into
    /// the L1D); null until first registration.
    const std::uint64_t* l1_gen_slot = nullptr;
    /// Sum of the L1-set generation (*l1_gen_slot) and the whole-DTLB
    /// mutation generation when the entry was armed, or 0 for "revalidate
    /// through the handles".  Both terms are monotone, so an equal sum
    /// means neither moved: no fill, invalidation, downgrade or reset has
    /// touched the L1 set or the DTLB and the handles are valid without
    /// dereferencing them.  Arming requires the line to be store-safe (not
    /// kShared), so one generation covers loads and stores alike; 0 is
    /// unreachable as a live sum because a registered line's set and the
    /// DTLB have each seen >= 1 fill.
    std::uint64_t gen = 0;
  };
  /// Sized past a full-fidelity L1D (16 KB / 64 B = 256 lines) so the
  /// filter, not the table, decides fast-path coverage.
  static constexpr std::size_t kFastEntries = 512;

  /// Front-end counterpart of FastEntry: the last code block this context
  /// fetched, with revalidatable handles to its ITLB entry and trace lines.
  /// The key fields (block id, uops, code base, partition) must all match
  /// the current fetch before the handles are even consulted, so a rebind
  /// or MT-mode flip can never replay another program's or partition's
  /// trace.
  struct FastBlock {
    BlockId block = 0;
    std::uint32_t uops = 0;
    Addr code_base = 0;
    Addr code_addr = 0;  ///< ITLB lookup address of the block
    int partition = 0;
    bool valid = false;
    SetAssocCache::LineRef itlb;
    TraceCache::FastTrace trace;
    /// LRU clocks of the trace partition and the ITLB right after the last
    /// (re)validated fetch of this block.  Both structures mutate only
    /// through clock-ticking operations (probe, fill, fast_commit) or
    /// reset() — which tears this register down — so unchanged clocks prove
    /// every handle is exactly as the last commit left it and the repeat
    /// fetch can replay with no per-line checks at all.
    std::uint64_t part_clock = 0;
    std::uint64_t itlb_clock = 0;
  };

  [[nodiscard]] FastEntry& fast_entry(Addr line) noexcept {
    // Fold high line bits into the index: concurrently-walked arrays are
    // often a near-multiple of the table span apart in the address space,
    // and a plain modulo would alias them slot-for-slot.
    const Addr l = line >> fast_line_shift_;
    return fast_[(l ^ (l >> 9)) & (kFastEntries - 1)];
  }
  /// Replays the state and timing effects of an L1/DTLB hit through the
  /// entry's validated handles (tail of the inlined load()/store() paths).
  void fast_hit(FastEntry& fe, Dep dep, bool is_store) noexcept;

  /// Whole-table teardown on rebind, reset and MT-mode flip; the next
  /// access re-registers via the reference path.  Coherence actions never
  /// call it: they tick the snooped L1 set's mutation generation, which
  /// sends exactly the registers on that set back through tier 2.
  void clear_fast_entries() noexcept {
    for (FastEntry& e : fast_) e = FastEntry{};
    fast_block_.valid = false;
  }

  /// Reference path of exec_block(): ITLB access, trace fetch, miss
  /// penalties — and fast-path re-registration on the way out.
  void exec_block_slow(BlockId block, std::uint32_t uops) noexcept;

  /// Adds the batched high-frequency events to the bound counter set and
  /// zeroes the accumulators.  Integer adds, no rounding: attribution is
  /// exact however often this runs.  Memory accesses and branches batch as
  /// single per-kind counts that fan out here — a load/store is always one
  /// instruction + one L1D reference + one DTLB reference, and a branch is
  /// always one instruction + one branch, so folding at flush time charges
  /// exactly what per-access increments would have.
  void flush_event_counts() noexcept {
    if (counters_ != nullptr) {
      counters_->add(perf::Event::kInstructions,
                     acc_instructions_ + acc_mem_accesses_ + acc_branch_ops_);
      counters_->add(perf::Event::kL1dReferences, acc_mem_accesses_);
      counters_->add(perf::Event::kDtlbReferences, acc_mem_accesses_);
      counters_->add(perf::Event::kItlbReferences, acc_itlb_refs_);
      counters_->add(perf::Event::kTraceCacheReferences, acc_tc_refs_);
      counters_->add(perf::Event::kBranches, acc_branch_ops_);
    }
    acc_instructions_ = acc_mem_accesses_ = 0;
    acc_itlb_refs_ = acc_tc_refs_ = acc_branch_ops_ = 0;
  }

  void advance_busy(double c) noexcept {
    now_ += c;
    busy_ += c;
  }

  /// Issue of @p uops uops at the core's current per-uop cost.  Alongside
  /// the busy time it tracks how much of that time is SMT stretch (the
  /// surcharge over the single-context cost) — a plain accumulator that
  /// never feeds back into timing, so it is bit-identity free; the tracer
  /// reads it at flush to split busy into issue + contention.
  void advance_issue(double uops) noexcept;

  Core* core_ = nullptr;
  LogicalCpu id_{};
  perf::CounterSet* counters_ = nullptr;
  Addr code_base_ = 0;
  BlockId last_block_ = 0;
  BranchHistory history_{};

  double now_ = 0;
  double busy_ = 0;
  double busy_stretch_ = 0;  ///< SMT issue-stretch share of busy_
  double stall_mem_ = 0;
  double stall_branch_ = 0;
  double stall_tlb_ = 0;
  double stall_fe_ = 0;
  double executed_total_ = 0;

  // Batched high-frequency event counts (flushed by flush_event_counts).
  std::uint64_t acc_instructions_ = 0;   // alu uops only
  std::uint64_t acc_mem_accesses_ = 0;   // loads + stores (3 events each)
  std::uint64_t acc_itlb_refs_ = 0;
  std::uint64_t acc_tc_refs_ = 0;
  std::uint64_t acc_branch_ops_ = 0;     // branches (2 events each)

  // Fast-path registers; geometry mirrors the owning core's L1 lines.
  std::array<FastEntry, kFastEntries> fast_{};
  FastBlock fast_block_{};
  Addr fast_line_mask_ = 0;
  unsigned fast_line_shift_ = 0;
};

/// One physical core and its shared structures.
class Core {
 public:
  /// Builds core @p core_idx of chip @p chip_idx from @p p's topology: its
  /// own L1D and, unless the L2 is chip-shared, its own L2.  @p chip_cache
  /// is the chip's shared outermost level — the L2 of a shared-L2 topology,
  /// the L3 of a three-level one — or null when every level is per-core.
  Core(const MachineParams& p, Machine* machine, int chip_idx, int core_idx,
       SetAssocCache* chip_cache);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// The hardware context @p i (0 .. smt_count()-1).
  [[nodiscard]] HwContext& context(int i) noexcept { return contexts_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const HwContext& context(int i) const noexcept {
    return contexts_[static_cast<std::size_t>(i)];
  }

  /// Number of SMT hardware contexts this core was built with.
  [[nodiscard]] int smt_count() const noexcept {
    return static_cast<int>(contexts_.size());
  }

  /// Declares how many contexts of this core are actively running threads
  /// in the current region (1 or 2).  Set by the runtime; drives the SMT
  /// issue-sharing stretch.
  void set_active_contexts(int n) noexcept {
    active_contexts_ = n;
    refresh_issue_cost();
    clear_fast_entries();
  }

  /// Issue cost of one uop on one context under the current SMT activity.
  [[nodiscard]] double issue_cycles_per_uop() const noexcept {
    return issue_cost_;
  }

  /// Global core id (0..3 on Paxville); Machine maps it to a coherence
  /// domain.
  [[nodiscard]] int global_id() const noexcept {
    return chip_idx_ * params_->topology.cores_per_package + core_idx_;
  }
  [[nodiscard]] int chip_index() const noexcept { return chip_idx_; }

  /// Coherence entry points (called by Machine on behalf of remote cores).
  /// Invalidates the line from every level this core reaches (L1, private
  /// mid-level if any, and its outermost cache); returns true if the
  /// outermost copy was dirty.
  bool invalidate_line(Addr line_addr) noexcept;
  /// Downgrades every level's copy to shared; returns true if the outermost
  /// copy was dirty.
  bool downgrade_line(Addr line_addr) noexcept;

  // ---- topology wiring (called by Machine during construction) -------------
  /// Registers another core of the same coherence domain (it shares this
  /// core's outermost cache).  Empty on private-outer topologies.
  void add_domain_sibling(Core* sib) { domain_siblings_.push_back(sib); }

  // ---- intra-domain coherence (cores sharing one outer cache) --------------
  /// Drops this core's *inner* copies of @p line_addr (L1, and the private
  /// mid-level cache when an L3 is attached); the shared outer copy is the
  /// caller's to manage.
  void invalidate_inner(Addr line_addr) noexcept;
  /// Downgrades this core's inner copies to shared.
  void downgrade_inner(Addr line_addr) noexcept;
  /// If this core holds @p line_addr in an inner level, invalidates
  /// (@p is_store) or downgrades it and returns true; otherwise returns
  /// false without touching anything.
  bool snoop_inner(Addr line_addr, bool is_store) noexcept;
  /// snoop_inner on every registered domain sibling (no-op when none).
  void snoop_siblings(Addr line_addr, bool is_store) noexcept {
    for (Core* sib : domain_siblings_) sib->snoop_inner(line_addr, is_store);
  }

  /// Cold restart (new trial): clears caches, TLBs, predictor, prefetcher
  /// and both contexts.  The attached sink survives a reset, mirroring
  /// Machine::reset (attachment lifetime is the caller's concern).
  void reset() noexcept;

  /// Machine-wide event sink, cached per core so reference-path call sites
  /// skip the Machine indirection.  Set by Machine::set_trace_sink; never
  /// attach directly.  The fast path runs exactly while no sink is attached;
  /// the registers are cleared either way, so a sink sees every access.
  void set_trace_sink(TraceSink* sink) noexcept {
    sink_ = sink;
    fast_path_ = params_->fast_path && sink == nullptr;
    clear_fast_entries();
  }
  [[nodiscard]] TraceSink* trace_sink() const noexcept { return sink_; }

  /// Accesses this core's contexts sent down the reference path
  /// (access_memory) since construction: a fast-path test probe, untimed.
  [[nodiscard]] std::uint64_t reference_accesses() const noexcept {
    return reference_accesses_;
  }

  // Introspection for tests and the invariant checker.
  [[nodiscard]] const SetAssocCache& l1d() const noexcept { return l1d_; }
  [[nodiscard]] const SetAssocCache& l2() const noexcept { return *l2_; }
  [[nodiscard]] const Tlb& itlb() const noexcept { return itlb_; }
  [[nodiscard]] const Tlb& dtlb() const noexcept { return dtlb_; }
  /// Chip-shared last-level cache, or null on two-level topologies.
  [[nodiscard]] const SetAssocCache* l3() const noexcept { return l3_; }
  /// True when this core owns its outer cache (no chip-shared L2).
  [[nodiscard]] bool owns_l2() const noexcept { return l2_own_ != nullptr; }
  /// The outermost cache this core fills from memory: the L3 when attached,
  /// otherwise the (private or chip-shared) L2.
  [[nodiscard]] const SetAssocCache& outer_cache() const noexcept {
    return l3_ != nullptr ? *l3_ : *l2_;
  }

  /// Audits both contexts' fast-path registers: an entry whose armed
  /// generation sum still matches the live structures must also pass handle
  /// revalidation — the tier-1 "commit without reading the line" proof must
  /// never outlive tier 2's.  Returns true when clean; otherwise fills
  /// @p why (if non-null).  Trivially clean while an attached sink disables
  /// the fast path (the tables stay empty); exercised against fast-path
  /// machines by the unit tests.
  [[nodiscard]] bool audit_fast_entries(std::string* why) const;

 private:
  friend class HwContext;

  /// Shared load/store path; returns the exposed stall cycles.
  double access_memory(HwContext& ctx, Addr addr, bool is_store, Dep dep) noexcept;
  /// Resolves a miss in the outermost cache level: bus read, coherent fill,
  /// eviction writeback, prefetch issue.  Returns load-to-use latency.
  double resolve_l2_miss(HwContext& ctx, Addr line_addr, bool is_store) noexcept;
  /// Installs @p line_addr into the outermost cache with coherence, handling
  /// the eviction.  @p ready_at is the virtual time the fill data arrives.
  void fill_l2(HwContext& ctx, Addr line_addr, bool is_store, bool prefetched,
               double ready_at = 0) noexcept;
  void issue_prefetches(HwContext& ctx, Addr line_addr) noexcept;

  /// Recomputes the cached issue cost and the precomputed chained-L1-hit
  /// stall for the current SMT activity (the values the inlined fast path
  /// reads per access).
  void refresh_issue_cost() noexcept {
    issue_cost_ = active_contexts_ > 1
                      ? params_->cycles_per_uop * params_->smt_issue_stretch
                      : params_->cycles_per_uop;
    chained_l1_stall_ = std::max(0.0, l1_latency_ - issue_cost_);
    // Per-uop SMT surcharge over the single-context cost; exactly 0 when
    // this core runs one context, so busy_stretch_ accumulates nothing.
    issue_stretch_extra_ = issue_cost_ - params_->cycles_per_uop;
  }
  void clear_fast_entries() noexcept {
    for (HwContext& ctx : contexts_) ctx.clear_fast_entries();
  }

  const MachineParams* params_;
  Machine* machine_;
  int chip_idx_;
  int core_idx_;

  SetAssocCache l1d_;
  /// The core's L2: its own storage (l2_own_) when the L2 is per-core, else
  /// the chip-shared cache passed in at construction.  On three-level
  /// topologies it is the private mid-level and l3_ is the chip-shared LLC.
  std::unique_ptr<SetAssocCache> l2_own_;
  SetAssocCache* l2_ = nullptr;
  SetAssocCache* l3_ = nullptr;    ///< chip-shared LLC (three-level only)
  // Load-to-use latencies, cached from the topology's levels and node 0.
  double l1_latency_ = 0;
  double l2_latency_ = 0;
  double l3_latency_ = 0;          ///< 0 without an l3_
  double mem_latency_ = 0;         ///< uncontended DRAM on node 0
  std::vector<Core*> domain_siblings_;  ///< other cores sharing our outer cache
  TraceCache trace_cache_;
  Tlb itlb_;
  Tlb dtlb_;
  BranchPredictor predictor_;
  StreamPrefetcher prefetcher_;
  std::vector<PrefetchRequest> prefetch_buffer_;
  std::vector<HwContext> contexts_;
  int active_contexts_ = 1;

  bool fast_path_ = true;          ///< MachineParams::fast_path, no sink
  double issue_cost_ = 0;          ///< cached issue_cycles_per_uop()
  double chained_l1_stall_ = 0;    ///< max(0, l1_latency - issue_cost_)
  double issue_stretch_extra_ = 0; ///< issue_cost_ - cycles_per_uop
  TraceSink* sink_ = nullptr;      ///< Machine's sink, cached per core
  std::uint64_t reference_accesses_ = 0;  ///< see reference_accesses()
};

// ---------------------------------------------------------------------------
// Inlined hot path.  A load/store whose line and page hit registered, still-
// valid L1/DTLB entries replays the exact state and timing effects of the
// out-of-line path: issue cost, both reference counts, one LRU clock tick
// per structure, stamp refresh, store upgrade towards Modified, and (for
// chained accesses) the precomputed exposed L1-hit stall.  Everything else —
// first touch, misses, shared-line stores, in-flight fills — falls through
// to Core::access_memory, which re-registers the entry on its way out.
//
// Validation is two-tier.  Tier 1 compares the entry's armed generation sum
// against the live L1D+DTLB set generations: equality proves no fill,
// invalidation, downgrade or reset has touched either set since arming, so
// both handles are valid *by construction* and the access commits without
// reading a single cache-line field.  Tier 2 (generation moved) revalidates
// through the handles as before and re-arms the entry when the line is
// store-safe.  Both tiers commit the identical effects; only the proof of
// validity differs.
// ---------------------------------------------------------------------------

inline void HwContext::advance_issue(double uops) noexcept {
  advance_busy(uops * core_->issue_cost_);
  busy_stretch_ += uops * core_->issue_stretch_extra_;
}

inline void HwContext::alu(std::uint32_t uops) noexcept {
  advance_issue(static_cast<double>(uops));
  acc_instructions_ += uops;
}

inline void HwContext::fast_hit(FastEntry& fe, Dep dep,
                                bool is_store) noexcept {
  core_->l1d_.fast_commit(fe.l1, is_store);
  core_->dtlb_.fast_commit(fe.tlb);
  if (dep == Dep::kChained) {
    const double stall = core_->chained_l1_stall_;
    now_ += stall;
    stall_mem_ += stall;
  }
  // Independent L1 hits are fully pipelined: no exposed stall.
}

inline void HwContext::load(Addr addr, Dep dep) noexcept {
  advance_issue(1.0);
  ++acc_mem_accesses_;
  const Addr line = addr & fast_line_mask_;
  FastEntry& fe = fast_entry(line);
  if (fe.line == line) {  // a match implies registration: l1_gen_slot is set
    const std::uint64_t cur =
        *fe.l1_gen_slot + core_->dtlb_.mutation_gen();
    if (fe.gen == cur) {  // tier 1: armed and nothing structural happened
      fast_hit(fe, dep, /*is_store=*/false);
      return;
    }
    if (core_->dtlb_.fast_check(fe.tlb, addr)) {  // tier 2
      if (core_->l1d_.fast_check(fe.l1, addr, /*is_store=*/true)) {
        fe.gen = cur;  // store-safe: re-arm tier 1 for both access kinds
        fast_hit(fe, dep, /*is_store=*/false);
        return;
      }
      if (core_->l1d_.fast_check(fe.l1, addr, /*is_store=*/false)) {
        fast_hit(fe, dep, /*is_store=*/false);  // kShared line: stay unarmed
        return;
      }
    }
  }
  const double stall = core_->access_memory(*this, addr, /*is_store=*/false, dep);
  now_ += stall;
  stall_mem_ += stall;
}

inline void HwContext::store(Addr addr, Dep dep) noexcept {
  advance_issue(1.0);
  ++acc_mem_accesses_;
  const Addr line = addr & fast_line_mask_;
  FastEntry& fe = fast_entry(line);
  if (fe.line == line) {  // a match implies registration: l1_gen_slot is set
    const std::uint64_t cur =
        *fe.l1_gen_slot + core_->dtlb_.mutation_gen();
    if (fe.gen == cur) {  // tier 1: an armed line is store-safe by arming rule
      fast_hit(fe, dep, /*is_store=*/true);
      return;
    }
    if (core_->l1d_.fast_check(fe.l1, addr, /*is_store=*/true) &&
        core_->dtlb_.fast_check(fe.tlb, addr)) {  // tier 2
      fe.gen = cur;
      fast_hit(fe, dep, /*is_store=*/true);
      return;
    }
  }
  const double stall = core_->access_memory(*this, addr, /*is_store=*/true, dep);
  now_ += stall;
  stall_mem_ += stall;
}

inline void HwContext::exec_block(BlockId block, std::uint32_t uops) noexcept {
  FastBlock& fb = fast_block_;
  if (fb.valid && fb.block == block && fb.uops == uops &&
      fb.code_base == code_base_) {
    const int partition = (core_->active_contexts_ > 1 &&
                           core_->params_->trace_mt_static_partition)
                              ? id_.context
                              : -1;
    if (partition == fb.partition) {
      if (fb.part_clock == fb.trace.part->lru_clock() &&
          fb.itlb_clock == core_->itlb_.lru_clock()) {
        // Tier 1: neither structure ticked since our last commit, so every
        // handle is exactly as that commit left it — replay unchecked.
        core_->trace_cache_.commit(fb.trace);
        core_->itlb_.fast_commit(fb.itlb);
      } else if (core_->itlb_.fast_check(fb.itlb, fb.code_addr) &&
                 core_->trace_cache_.try_commit(fb.trace)) {
        core_->itlb_.fast_commit(fb.itlb);  // tier 2: handle revalidation
      } else {
        exec_block_slow(block, uops);
        return;
      }
      fb.part_clock = fb.trace.part->lru_clock();
      fb.itlb_clock = core_->itlb_.lru_clock();
      ++acc_itlb_refs_;
      acc_tc_refs_ += fb.trace.n;
      return;
    }
  }
  exec_block_slow(block, uops);
}

inline void HwContext::branch(std::uint32_t site, bool taken) noexcept {
  advance_issue(1.0);
  ++acc_branch_ops_;
  const bool correct =
      core_->predictor_.predict_and_update(site, taken, history_);
  if (!correct) {
    counters_->add(perf::Event::kBranchMispredicts, 1);
    const double penalty =
        static_cast<double>(core_->params_->mispredict_penalty);
    now_ += penalty;
    stall_branch_ += penalty;
  }
}

}  // namespace paxsim::sim
