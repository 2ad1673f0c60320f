#include "sim/core.hpp"

#include <algorithm>
#include <cmath>

#include "sim/machine.hpp"

namespace paxsim::sim {

using perf::Event;

// ---------------------------------------------------------------------------
// HwContext
// ---------------------------------------------------------------------------

void HwContext::exec_block_slow(BlockId block, std::uint32_t uops) noexcept {
  const MachineParams& p = *core_->params_;
  ++acc_itlb_refs_;
  last_block_ = block;
  const Addr code_addr = code_base_ + static_cast<Addr>(block) * p.code_block_bytes;
  double itlb_walk = 0;
  if (!core_->itlb_.access(code_addr)) {
    counters_->add(Event::kItlbMisses, 1);
    const double walk = static_cast<double>(p.tlb_walk_penalty);
    now_ += walk;
    stall_tlb_ += walk;
    itlb_walk = walk;
  }
  // NetBurst statically splits the trace cache between contexts in MT mode.
  const int partition =
      (core_->active_contexts_ > 1 && p.trace_mt_static_partition)
          ? id_.context
          : -1;
  const TraceFetch tf =
      core_->trace_cache_.fetch(code_base_, block, uops, partition);
  acc_tc_refs_ += tf.lines_referenced;
  double decode = 0;
  if (tf.lines_missed != 0) {
    counters_->add(Event::kTraceCacheMisses, tf.lines_missed);
    decode = static_cast<double>(tf.lines_missed) *
             static_cast<double>(p.trace_miss_penalty);
    now_ += decode;
    stall_fe_ += decode;
  }
  // The block's translation and trace lines are resident now (hit or
  // filled); capture handles so a repeat can replay the all-hit fetch.
  if (core_->fast_path_) {
    FastBlock& fb = fast_block_;
    fb.block = block;
    fb.uops = uops;
    fb.code_base = code_base_;
    fb.code_addr = code_addr;
    fb.partition = partition;
    fb.itlb = core_->itlb_.last_ref();
    core_->trace_cache_.register_fast(fb.trace, code_base_, block, uops,
                                      partition);
    fb.valid = fb.trace.part != nullptr;
    if (fb.valid) {
      // register_fast() verified every handle, so snapshotting the LRU
      // clocks here arms the unchecked replay tier of exec_block().
      fb.part_clock = fb.trace.part->lru_clock();
      fb.itlb_clock = core_->itlb_.lru_clock();
    }
  }
  if (TraceSink* sink = core_->sink_) {
    sink->on_fetch(*this, code_addr, uops);
    sink->on_fetch_stall(*this, itlb_walk, decode);
  }
}

void HwContext::flush_accumulators() noexcept {
  flush_event_counts();
  if (counters_ == nullptr) return;
  if (TraceSink* sink = core_->sink_) {
    // Hand the unrounded deltas to the tracer before they are folded away;
    // region attribution follows the flush boundaries (every barrier).
    sink->on_flush(*this, busy_, busy_stretch_, stall_mem_, stall_branch_,
                   stall_tlb_, stall_fe_);
  }
  const double total = busy_ + stall_mem_ + stall_branch_ + stall_tlb_ + stall_fe_;
  executed_total_ += total;
  counters_->add(Event::kCycles, static_cast<std::uint64_t>(std::llround(total)));
  counters_->add(Event::kStallCyclesMemory,
                 static_cast<std::uint64_t>(std::llround(stall_mem_)));
  counters_->add(Event::kStallCyclesBranch,
                 static_cast<std::uint64_t>(std::llround(stall_branch_)));
  counters_->add(Event::kStallCyclesTlb,
                 static_cast<std::uint64_t>(std::llround(stall_tlb_)));
  counters_->add(Event::kStallCyclesFrontend,
                 static_cast<std::uint64_t>(std::llround(stall_fe_)));
  busy_ = stall_mem_ = stall_branch_ = stall_tlb_ = stall_fe_ = 0;
  busy_stretch_ = 0;
}

void HwContext::reset() noexcept {
  now_ = 0;
  busy_ = stall_mem_ = stall_branch_ = stall_tlb_ = stall_fe_ = 0;
  busy_stretch_ = 0;
  executed_total_ = 0;
  acc_instructions_ = acc_mem_accesses_ = 0;
  acc_itlb_refs_ = acc_tc_refs_ = acc_branch_ops_ = 0;
  last_block_ = 0;
  clear_fast_entries();
  history_ = BranchHistory{};
  counters_ = nullptr;
  code_base_ = 0;
}

// ---------------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------------

namespace {

/// The core's own L2, or null when the topology's L2 is chip-shared.
std::unique_ptr<SetAssocCache> private_l2(const Topology& t) {
  const TopoCacheLevel& l2 = t.levels[1];
  if (l2.scope == SharingScope::kPerChip) return nullptr;
  return std::make_unique<SetAssocCache>(l2.geometry);
}

}  // namespace

Core::Core(const MachineParams& p, Machine* machine, int chip_idx, int core_idx,
           SetAssocCache* chip_cache)
    : params_(&p),
      machine_(machine),
      chip_idx_(chip_idx),
      core_idx_(core_idx),
      l1d_(p.topology.levels[0].geometry),
      l2_own_(private_l2(p.topology)),
      l2_(l2_own_ != nullptr ? l2_own_.get() : chip_cache),
      l3_(p.topology.levels.size() == 3 ? chip_cache : nullptr),
      l1_latency_(static_cast<double>(p.topology.levels[0].latency)),
      l2_latency_(static_cast<double>(p.topology.levels[1].latency)),
      l3_latency_(l3_ != nullptr
                      ? static_cast<double>(p.topology.levels[2].latency)
                      : 0.0),
      mem_latency_(static_cast<double>(p.topology.nodes[0].latency)),
      trace_cache_(p.trace_cache_uops, p.trace_uops_per_line, p.trace_cache_ways),
      itlb_(p.itlb_entries, p.itlb_ways, p.page_bytes),
      dtlb_(p.dtlb_entries, p.dtlb_ways, p.page_bytes),
      predictor_(),
      prefetcher_(p),
      fast_path_(p.fast_path) {
  refresh_issue_cost();
  const int smt = std::max(1, p.topology.smt_per_core);
  contexts_.resize(static_cast<std::size_t>(smt));
  for (int i = 0; i < smt; ++i) {
    HwContext& ctx = contexts_[static_cast<std::size_t>(i)];
    ctx.core_ = this;
    ctx.id_ = LogicalCpu{static_cast<std::uint8_t>(chip_idx),
                         static_cast<std::uint8_t>(core_idx),
                         static_cast<std::uint8_t>(i)};
    ctx.fast_line_mask_ = ~static_cast<Addr>(l1d_.line_bytes() - 1);
    ctx.fast_line_shift_ = log2_exact(l1d_.line_bytes());
  }
}

double Core::access_memory(HwContext& ctx, Addr addr, bool is_store,
                           Dep dep) noexcept {
  const MachineParams& p = *params_;
  perf::CounterSet& c = *ctx.counters_;
  ++reference_accesses_;

  // --- DTLB ------------------------------------------------------------------
  // (The reference count was already batched by the inlined load()/store().)
  double stall = 0;
  double dtlb_walk = 0;
  if (!dtlb_.access(addr)) {
    c.add(is_store ? Event::kDtlbStoreMisses : Event::kDtlbLoadMisses, 1);
    // Page walks are charged to the TLB stall class directly on the context.
    const double walk = static_cast<double>(p.tlb_walk_penalty);
    ctx.now_ += walk;
    ctx.stall_tlb_ += walk;
    dtlb_walk = walk;
  }
  // Whether hit or walked-in fill, the DTLB's last-touched entry is now the
  // page of @p addr — capture the handle for the fast-path registration
  // below (nothing after this point touches the DTLB).
  const SetAssocCache::LineRef dtlb_ref = dtlb_.last_ref();

  // --- L1D --------------------------------------------------------------------
  const Addr line = l1d_.line_of(addr);
  const ProbeResult l1 = l1d_.probe(addr, is_store);
  double latency = 0;    // load-to-use latency of the level that served us
  double hard_wait = 0;  // in-flight fill arrival wait (not overlappable)
  double queue_wait = 0; // FSB + memory-controller backlog share of latency
  MemLevel level = MemLevel::kL1;
  if (l1.hit) {
    latency = l1_latency_;
    if (is_store && l1.state == LineState::kShared) {
      machine_->store_upgrade(global_id(), line, ctx);
      l1d_.upgrade_to_modified(addr);
      l2_->upgrade_to_modified(addr);
      if (l3_ != nullptr) l3_->upgrade_to_modified(addr);
      latency += l2_latency_;  // snoop round-trip
    }
  } else {
    c.add(Event::kL1dMisses, 1);
    // --- L2 -------------------------------------------------------------------
    c.add(Event::kL2References, 1);
    const ProbeResult l2 = l2_->probe(addr, is_store);
    level = MemLevel::kL2;
    if (l2.hit) {
      if (l2.prefetched) {
        c.add(Event::kPrefetchesUseful, 1);
        // A demand hit on a prefetched line confirms the stream: keep it
        // running (real stream engines advance on prefetch hits, otherwise
        // a perfectly covered stream would starve its own detector).
        issue_prefetches(ctx, l2_->line_of(addr));
      }
      latency = l2_latency_;
      // A hit on an in-flight fill waits for the data to land.  The wait is
      // a hard arrival constraint — charged in full, not scaled by the
      // overlap factor — which is what throttles an eager prefetcher to the
      // memory controller's service rate instead of conjuring bandwidth.
      if (l2.ready_at > ctx.now_) hard_wait = l2.ready_at - ctx.now_;
      if (is_store && l2.state == LineState::kShared) {
        machine_->store_upgrade(global_id(), line, ctx);
        l2_->upgrade_to_modified(addr);
        if (l3_ != nullptr) l3_->upgrade_to_modified(addr);
        latency += l2_latency_;
      }
    } else if (l3_ == nullptr) {
      c.add(Event::kL2Misses, 1);
      level = MemLevel::kMem;
      latency = resolve_l2_miss(ctx, line, is_store);
      // Everything the bus path charged beyond the raw DRAM latency is
      // backlog behind other transfers.
      queue_wait = latency - machine_->memory_base_latency(chip_idx_, line);
    } else {
      c.add(Event::kL2Misses, 1);
      // --- L3 (chip-shared last level, three-level topologies) --------------
      c.add(Event::kL3References, 1);
      const ProbeResult l3 = l3_->probe(addr, is_store);
      level = MemLevel::kL3;
      if (l3.hit) {
        if (l3.prefetched) {
          c.add(Event::kPrefetchesUseful, 1);
          issue_prefetches(ctx, l3_->line_of(addr));
        }
        latency = l3_latency_;
        if (l3.ready_at > ctx.now_) hard_wait = l3.ready_at - ctx.now_;
        if (is_store && l3.state == LineState::kShared) {
          machine_->store_upgrade(global_id(), line, ctx);
          l3_->upgrade_to_modified(addr);
          latency += l3_latency_;
        }
      } else {
        c.add(Event::kL3Misses, 1);
        level = MemLevel::kMem;
        latency = resolve_l2_miss(ctx, line, is_store);
        queue_wait = latency - machine_->memory_base_latency(chip_idx_, line);
      }
      // Refill the private mid-level L2 from the L3.  Its state mirrors the
      // L3's sharing.  The mid-level includes the L1, so its victim leaves
      // the L1 too, and is dirty if either copy was; a dirty victim folds
      // back into the L3 (or back through the coherent fill path if the L3
      // already evicted it).
      const LineState mid_state =
          is_store ? LineState::kModified
                   : (l3_->state_of(addr) == LineState::kShared
                          ? LineState::kShared
                          : LineState::kExclusive);
      if (auto ev = l2_->fill(addr, mid_state, false)) {
        const bool l1_dirty = l1d_.invalidate(ev->line_addr);
        if (ev->dirty || l1_dirty) {
          if (l3_->contains(ev->line_addr)) {
            l3_->upgrade_to_modified(ev->line_addr);
          } else {
            fill_l2(ctx, ev->line_addr, /*is_store=*/true, /*prefetched=*/false);
          }
        }
      }
    }
    // Under a shared outer cache, other cores of the domain may hold inner
    // copies of this line: a store kills them, a load downgrades them (and
    // forces our own L1 copy to Shared).  The sibling list is empty on
    // private-outer topologies, so the default machine never enters here.
    bool sibling_had_copy = false;
    for (Core* sib : domain_siblings_) {
      sibling_had_copy |= sib->snoop_inner(line, is_store);
    }
    // Fill L1 (evictions write through to the L2, on-chip, no bus traffic).
    // The L1 state must mirror the L2's sharing: caching a remotely-shared
    // line as Exclusive in L1 would let a later store skip the remote
    // invalidation (caught by the coherence fuzz suite).
    const LineState l1_state =
        is_store ? LineState::kModified
                 : ((l2_->state_of(addr) == LineState::kShared || sibling_had_copy)
                        ? LineState::kShared
                        : LineState::kExclusive);
    if (auto ev = l1d_.fill(addr, l1_state, false); ev && ev->dirty) {
      if (l2_->contains(ev->line_addr)) {
        l2_->upgrade_to_modified(ev->line_addr);
      } else {
        fill_l2(ctx, ev->line_addr, /*is_store=*/true, /*prefetched=*/false);
      }
    }
  }

  // --- fast-path registration -------------------------------------------------
  // The line is resident in L1 and its page is in the DTLB: register the
  // handles so the next same-line access can take the inlined path.  The
  // handles are revalidated at use time, so a later eviction reusing either
  // slot merely misses the fast path — it can never serve stale state.
  if (fast_path_) {
    HwContext::FastEntry& fe = ctx.fast_entry(line);
    fe.line = line;
    fe.l1 = l1d_.last_ref();
    fe.tlb = dtlb_ref;
    fe.l1_gen_slot = l1d_.mutation_gen_slot(addr);
    // Arm the zero-revalidation tier only when the line could also replay a
    // store through this entry (fast_check with is_store doubles as the
    // kShared test; everything else it checks holds by construction here).
    // A shared line stays unarmed — gen 0 never equals a live generation
    // sum — and keeps revalidating through the handles.
    fe.gen = l1d_.fast_check(fe.l1, addr, /*is_store=*/true)
                 ? *fe.l1_gen_slot + dtlb_.mutation_gen()
                 : 0;
  }

  // --- exposure of the latency ------------------------------------------------
  const double issue = issue_cycles_per_uop();
  if (dep == Dep::kChained) {
    stall += std::max(0.0, latency + hard_wait - issue);
  } else {
    stall += hard_wait;
    // MT mode halves the per-thread load/store-buffer and ROB share
    // (NetBurst static partitioning), so less of an independent miss's
    // latency can be hidden.
    const bool mt = active_contexts_ > 1;
    const double store_ov = mt ? p.mt_store_overlap : p.store_overlap;
    if (latency >= mem_latency_) {
      stall += latency * (is_store ? store_ov
                                   : (mt ? p.mt_mem_overlap : p.mem_overlap));
    } else if (latency > l1_latency_) {
      stall += latency * (is_store ? store_ov
                                   : (mt ? p.mt_l2_overlap : p.l2_overlap));
    }
    // Independent L1 hits are fully pipelined: no exposed stall.
  }

  // Analysis hook: all cache/TLB/coherence state effects are committed, so
  // an attached sink observes the access exactly as it retired.  The wait on
  // an in-flight fill is queueing (the data is crossing the bus) on top of
  // whatever backlog the bus path itself charged.
  if (TraceSink* sink = sink_) {
    sink->on_access(ctx, addr, is_store, dep);
    sink->on_access_stall(ctx, level, dtlb_walk, stall, queue_wait + hard_wait,
                          latency + hard_wait);
  }
  return stall;
}

bool Core::audit_fast_entries(std::string* why) const {
  const auto fail = [&](const char* what, int ctx_idx) {
    if (why != nullptr) {
      *why = std::string(what) + " (core " + std::to_string(global_id()) +
             ", context " + std::to_string(ctx_idx) + ")";
    }
    return false;
  };
  for (int i = 0; i < smt_count(); ++i) {
    const HwContext& ctx = contexts_[static_cast<std::size_t>(i)];
    for (const HwContext::FastEntry& fe : ctx.fast_) {
      if (fe.line == ~Addr{0}) continue;  // empty register
      if (fe.l1_gen_slot == nullptr) {
        return fail("registered fast entry without a generation slot", i);
      }
      // The tier-1 proof: an armed generation sum that still matches the
      // live structures claims both handles are valid without reading them.
      // Cross-check the claim against tier 2.
      if (fe.gen != 0 && fe.gen == *fe.l1_gen_slot + dtlb_.mutation_gen()) {
        if (!l1d_.fast_check(fe.l1, fe.line, /*is_store=*/true)) {
          return fail("armed fast entry fails L1 revalidation", i);
        }
        if (!dtlb_.fast_check(fe.tlb, fe.line)) {
          return fail("armed fast entry fails DTLB revalidation", i);
        }
      }
    }
    const HwContext::FastBlock& fb = ctx.fast_block_;
    if (fb.valid && fb.part_clock == fb.trace.part->lru_clock() &&
        fb.itlb_clock == itlb_.lru_clock() &&
        !itlb_.fast_check(fb.itlb, fb.code_addr)) {
      return fail("armed fast block fails ITLB revalidation", i);
    }
  }
  return true;
}

double Core::resolve_l2_miss(HwContext& ctx, Addr line_addr, bool is_store) noexcept {
  perf::CounterSet& c = *ctx.counters_;
  c.add(Event::kBusTransactions, 1);
  c.add(Event::kBusReads, 1);
  const double latency = machine_->memory_read(chip_idx_, line_addr, ctx.now_);
  fill_l2(ctx, line_addr, is_store, /*prefetched=*/false, ctx.now_ + latency);
  issue_prefetches(ctx, line_addr);
  return latency;
}

void Core::fill_l2(HwContext& ctx, Addr line_addr, bool is_store,
                   bool prefetched, double ready_at) noexcept {
  const LineState st =
      machine_->coherent_fill(global_id(), line_addr, is_store, ctx);
  SetAssocCache& outer = l3_ != nullptr ? *l3_ : *l2_;
  if (auto ev = outer.fill(line_addr, st, prefetched, ready_at)) {
    // Keep the hierarchy inclusive: a line leaving the outermost level
    // leaves every inner copy too — ours and, under a shared outer cache,
    // our domain siblings'.
    l1d_.invalidate(ev->line_addr);
    if (l3_ != nullptr) l2_->invalidate(ev->line_addr);
    for (Core* sib : domain_siblings_) sib->invalidate_inner(ev->line_addr);
    if (ev->dirty) {
      perf::CounterSet& c = *ctx.counters_;
      c.add(Event::kBusTransactions, 1);
      c.add(Event::kBusWrites, 1);
      machine_->memory_write(chip_idx_, ev->line_addr, ctx.now_);
    }
  }
}

void Core::issue_prefetches(HwContext& ctx, Addr line_addr) noexcept {
  const MachineParams& p = *params_;
  prefetch_buffer_.clear();
  prefetcher_.on_demand_miss(line_addr, prefetch_buffer_);
  // Each request checks residency once, in order: an earlier prefetch's fill
  // can evict a later request's line mid-loop.  The bus gate is read at the
  // first non-resident request, so a window whose every line is resident
  // never consults the bus; nothing before that point changes any state, so
  // the gate sees what it would have seen before the loop.
  SetAssocCache& outer = l3_ != nullptr ? *l3_ : *l2_;
  FrontSideBus& bus = machine_->bus(chip_idx_);
  bool gated = false;
  perf::CounterSet& c = *ctx.counters_;
  for (const PrefetchRequest& req : prefetch_buffer_) {
    if (outer.contains(req.line_addr)) continue;
    if (!gated) {
      if (bus.utilization(ctx.now_) > p.prefetch_bus_threshold) return;
      gated = true;
    }
    c.add(Event::kPrefetchesIssued, 1);
    c.add(Event::kBusTransactions, 1);
    c.add(Event::kBusPrefetches, 1);
    const double lat = bus.read(ctx.now_);  // occupies bus + controller
    fill_l2(ctx, req.line_addr, /*is_store=*/false, /*prefetched=*/true,
            ctx.now_ + lat);
  }
}

bool Core::invalidate_line(Addr line_addr) noexcept {
  // No fast-path teardown here or in the other coherence entry points: the
  // L1's invalidate() and downgrade_to_shared() tick the snooped set's
  // mutation generation, so tier 1 fails for exactly the registers on that
  // set.  Tier 2 then sends the invalidated line (and stores to a
  // downgraded one) to the reference path and re-arms the set's untouched
  // neighbours; registers on every other set stay armed across the snoop.
  l1d_.invalidate(line_addr);
  if (l3_ != nullptr) {
    l2_->invalidate(line_addr);
    return l3_->invalidate(line_addr);
  }
  return l2_->invalidate(line_addr);
}

bool Core::downgrade_line(Addr line_addr) noexcept {
  l1d_.downgrade_to_shared(line_addr);
  if (l3_ != nullptr) {
    l2_->downgrade_to_shared(line_addr);
    return l3_->downgrade_to_shared(line_addr);
  }
  return l2_->downgrade_to_shared(line_addr);
}

void Core::invalidate_inner(Addr line_addr) noexcept {
  l1d_.invalidate(line_addr);
  if (l3_ != nullptr) l2_->invalidate(line_addr);
}

void Core::downgrade_inner(Addr line_addr) noexcept {
  l1d_.downgrade_to_shared(line_addr);
  if (l3_ != nullptr) l2_->downgrade_to_shared(line_addr);
}

bool Core::snoop_inner(Addr line_addr, bool is_store) noexcept {
  const bool held = l1d_.contains(line_addr) ||
                    (l3_ != nullptr && l2_->contains(line_addr));
  if (!held) return false;
  if (is_store) {
    invalidate_inner(line_addr);
  } else {
    downgrade_inner(line_addr);
  }
  return true;
}

void Core::reset() noexcept {
  l1d_.reset();
  l2_->reset();  // idempotent when chip-shared: each member core resets it
  if (l3_ != nullptr) l3_->reset();
  trace_cache_.reset();
  itlb_.reset();
  dtlb_.reset();
  predictor_.reset();
  prefetcher_.reset();
  for (auto& ctx : contexts_) ctx.reset();
  active_contexts_ = 1;
  refresh_issue_cost();
}

}  // namespace paxsim::sim
