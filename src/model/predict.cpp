#include "model/predict.hpp"

#include <algorithm>
#include <cmath>

#include "sim/topology.hpp"

namespace paxsim::model {
namespace {

// ---- model calibration constants ------------------------------------------
// These are properties of the *model*, not of the simulated machine (those
// live in MachineParams and its Topology); docs/CALIBRATION.md discusses the
// error bands they produce against the simulator.

/// Fraction of detected sequential DRAM candidates the stream prefetcher
/// converts into L2 hits (detection lag plus bus-threshold throttling keep
/// it below 1).
constexpr double kPrefetchCoverage = 0.85;
/// Prefetch lines issued per useful prefetch when the anchor cannot supply
/// the measured ratio (depth-8 streams overshoot at stream ends).
constexpr double kPrefetchOverIssue = 1.3;
/// Straggler-wait per barrier episode beyond what the per-thread RMW
/// stalls already carry, as a fraction of the DRAM latency (the runtime
/// RMW traffic itself is modelled explicitly; this covers sync skew).
constexpr double kBarrierLatencyFrac = 0.5;
/// DRAM latency inflation per unit of memory-controller utilisation
/// (open-loop stand-in for the queueing the simulator resolves in time).
constexpr double kQueueGain = 0.6;
/// Anchor-ratio clamp: measured/modelled corrections outside this range are
/// treated as model failures and clamped rather than amplified.
constexpr double kAnchorClampLo = 0.1;
constexpr double kAnchorClampHi = 10.0;

/// Raw (un-anchored) analytical outcome.
struct Raw {
  double accesses = 0;
  double l1_hits = 0, l1_misses = 0;
  double l2_refs = 0, l2_demand_hits = 0, l2_misses = 0;
  double dtlb_misses = 0;
  double tc_refs = 0, tc_misses = 0;
  double itlb_misses = 0;
  double coherence = 0;
  double rescued = 0;
  double instructions = 0;
  double branches = 0, mispredicts = 0;
  double issue = 0;
  double stall_mem = 0, stall_fe = 0, stall_tlb = 0, stall_branch = 0;
  double cycles = 0;
  double wall = 0;
  double bus_reads = 0, bus_writes = 0, bus_prefetches = 0;
  double mc_busy = 0;
};

double ratio_or(double num, double den, double fallback) {
  if (den <= 1e-9 || num <= 0) return fallback;
  return num / den;
}

double anchor_ratio(double measured, double modelled) {
  if (modelled <= 1e-9 || measured <= 0) return 1.0;
  return std::clamp(measured / modelled, kAnchorClampLo, kAnchorClampHi);
}

/// Measured-over-modelled capacity correction factors, derived once from
/// the un-anchored serial analysis against the profiling run's counters.
/// They scale only the *capacity* components inside analyze() — coherence
/// and runtime-barrier traffic are structural reconstructions with no
/// serial counterpart, so they ride on top unscaled.
struct Correction {
  double l1_miss = 1.0;
  double l2_miss = 1.0;
  double dtlb = 1.0;
  double tc_refs = 1.0;
  double tc_miss = 1.0;
  double itlb = 1.0;
  double bus_writes = 1.0;
};

/// The core of the model: expected counts and cycles for one placement.
/// @p serial_base is the same computation for the Serial placement (used
/// for the Amdahl serial portion); null when computing that base itself.
/// @p corr, when present, rescales the capacity estimates to the profiling
/// run's measured serial counters before derived costs are computed.
Raw analyze(const KernelProfile& p, const sim::MachineParams& m,
            const Placement& pl, const Raw* serial_base,
            const Correction* corr) {
  // Every level, link and node figure comes from the machine's topology:
  // the per-core L1D and the L2 (per-core or chip-shared), the chip-shared
  // L3 of a three-level hierarchy, and memory node 0.
  const sim::Topology& topo = m.topology;
  const sim::TopoCacheLevel& l1 = topo.levels[0];
  const sim::TopoCacheLevel& l2 = topo.levels[1];
  const sim::TopoCacheLevel* l3 =
      topo.levels.size() >= 3 ? &topo.levels[2] : nullptr;
  const sim::MemNode& node = topo.nodes[0];
  Raw r;
  const std::size_t k = thread_count_index(pl.threads);
  const double T = static_cast<double>(pl.threads);
  const int share = std::max(1, pl.contexts_per_core);
  const bool mt = share > 1;
  // Contexts competing for one instance of the level-1 cache: SMT siblings
  // when it is core-private (Paxville), the package's whole team share when
  // it is chip-shared (Woodcrest).
  const int l2_share = l2.scope == sim::SharingScope::kPerChip
                           ? std::max(1, pl.contexts_per_chip)
                           : share;

  r.accesses = static_cast<double>(p.loads + p.stores);
  const double loads = static_cast<double>(p.loads);
  const double stores = static_cast<double>(p.stores);

  // ---- capacity integration ------------------------------------------------
  // Competitive sharing under SMT: both contexts hash into the same sets, so
  // each context's stream effectively sees its share of the ways.
  const std::size_t l1_sets = std::max<std::size_t>(1, l1.geometry.sets());
  const std::size_t l1_ways =
      std::max<std::size_t>(1, l1.geometry.ways / share);
  const std::size_t l2_sets = std::max<std::size_t>(1, l2.geometry.sets());
  const std::size_t l2_ways =
      std::max<std::size_t>(1, l2.geometry.ways / l2_share);
  const std::size_t dtlb_sets =
      std::max<std::size_t>(1, m.dtlb_entries / m.dtlb_ways);
  const std::size_t dtlb_ways = std::max<std::size_t>(1, m.dtlb_ways / share);
  const std::size_t itlb_sets =
      std::max<std::size_t>(1, m.itlb_entries / m.itlb_ways);
  const std::size_t itlb_ways = std::max<std::size_t>(1, m.itlb_ways / share);

  const ReuseHistogram& lineh = p.line[k];
  const ReuseHistogram& storeh = p.store_line[k];

  double l1_hits = lineh.expected_hits(l1_sets, l1_ways);
  double l2_resident = std::max(l1_hits, lineh.expected_hits(l2_sets, l2_ways));
  const double st_l1 = storeh.expected_hits(l1_sets, l1_ways);
  const double st_l2res =
      std::max(st_l1, storeh.expected_hits(l2_sets, l2_ways));

  // Raw per-level store shares, before coherence/prefetch adjustment.
  const double mem_unadj = std::max(0.0, r.accesses - l2_resident);
  const double l2hit_unadj = std::max(0.0, l2_resident - l1_hits);
  const double store_share_l1 = ratio_or(st_l1, l1_hits, 0.0);
  const double store_share_l2 = ratio_or(st_l2res - st_l1, l2hit_unadj, 0.0);
  const double store_share_mem =
      ratio_or(stores - st_l2res, mem_unadj, stores / std::max(1.0, r.accesses));

  // Anchor the capacity estimates before any structural traffic is layered
  // on: scaling the *misses* (not the hits) keeps the correction stable when
  // hit rates approach 1.
  if (corr != nullptr) {
    const double l1m = std::max(0.0, r.accesses - l1_hits) * corr->l1_miss;
    l1_hits = std::clamp(r.accesses - l1m, 0.0, r.accesses);
    const double memc =
        std::max(0.0, r.accesses - l2_resident) * corr->l2_miss;
    l2_resident = std::clamp(r.accesses - memc, l1_hits, r.accesses);
  }

  // ---- chip-shared L3 (three-level topologies only) ------------------------
  // The same reuse histogram integrated against the L3's geometry, with the
  // package's whole team competing for its ways.  Lines resident in the L3
  // but not the mid-level L2 are served at the L3 latency instead of DRAM.
  double l3_resident = l2_resident;
  if (l3 != nullptr) {
    const int l3_share = l3->scope == sim::SharingScope::kPerChip
                             ? std::max(1, pl.contexts_per_chip)
                             : share;
    const std::size_t l3_sets = std::max<std::size_t>(1, l3->geometry.sets());
    const std::size_t l3_ways =
        std::max<std::size_t>(1, l3->geometry.ways / l3_share);
    l3_resident =
        std::max(l2_resident, lineh.expected_hits(l3_sets, l3_ways));
    if (corr != nullptr) {
      const double memc =
          std::max(0.0, r.accesses - l3_resident) * corr->l2_miss;
      l3_resident = std::clamp(r.accesses - memc, l2_resident, r.accesses);
    }
  }

  // ---- coherence -----------------------------------------------------------
  // Cross-owner transitions on written lines become cache-to-cache misses
  // when the owners run on different physical cores.
  if (k > 0) {
    const auto& tr = p.owner_transitions[k - 1];
    for (std::size_t from = 0; from < 8; ++from) {
      for (std::size_t to = 0; to < 8; ++to) {
        if (from >= static_cast<std::size_t>(pl.threads) ||
            to >= static_cast<std::size_t>(pl.threads)) {
          continue;
        }
        if (pl.rank_core[from] != pl.rank_core[to]) {
          r.coherence += static_cast<double>(tr[from * 8 + to]);
        }
      }
    }
    r.coherence = std::min(r.coherence, l2_resident);
  }
  // A coherence victim the stack model saw as resident actually misses both
  // levels and re-fetches over the bus.
  l1_hits = std::max(0.0, l1_hits - r.coherence);
  l2_resident = std::max(l1_hits, l2_resident - r.coherence);

  double mem_level = std::max(0.0, r.accesses - l2_resident);
  double l3_level = 0;  // L2 misses the chip-shared L3 absorbs
  if (l3 != nullptr) {
    l3_resident = std::max(l2_resident, l3_resident - r.coherence);
    l3_level = std::max(0.0, l3_resident - l2_resident);
    mem_level = std::max(0.0, mem_level - l3_level);
  }

  // ---- prefetch rescue -----------------------------------------------------
  const double stream_frac =
      ratio_or(static_cast<double>(p.streamed),
               static_cast<double>(p.stream_candidates), 0.0);
  r.rescued = kPrefetchCoverage * stream_frac *
              std::max(0.0, mem_level - r.coherence);
  mem_level -= r.rescued;

  r.l1_hits = l1_hits;
  r.l1_misses = r.accesses - l1_hits;
  r.l2_refs = r.l1_misses;
  r.l2_misses = mem_level + l3_level;
  r.l2_demand_hits = std::max(0.0, r.l2_refs - r.l2_misses);
  // Application accesses, before structural runtime/gather traffic is
  // layered on below — the DTLB stream the profile's page histograms
  // describe (the injected accesses hit a handful of hot pages).
  const double app_accesses = r.accesses;

  // ---- runtime barrier traffic ---------------------------------------------
  // The Team's sense-reversing barrier RMWs one shared line per thread per
  // episode.  The serial profile deliberately excludes runtime-internal
  // lines (a serial run has no barrier contention to observe), so their
  // parallel-run coherence traffic is reconstructed structurally: every
  // cross-core handoff of the barrier line is an L1+L2 miss resolved with a
  // full bus read — the simulator charges cache-to-cache transfers the same
  // FSB path as DRAM fills.  Same-core (SMT sibling) handoffs stay in the
  // shared L1.
  double rt_cross = 0;
  if (pl.threads > 1) {
    double cross = 0;
    const int nranks =
        std::min(pl.threads, static_cast<int>(Placement::kMaxRanks));
    for (int rank = 0; rank < nranks; ++rank) {
      const int prev = (rank + nranks - 1) % nranks;
      if (pl.rank_core[static_cast<std::size_t>(rank)] !=
          pl.rank_core[static_cast<std::size_t>(prev)]) {
        cross += 1;
      }
    }
    const double episodes = static_cast<double>(p.barriers);
    rt_cross = episodes * cross;
    r.accesses += episodes * 2.0 * T;  // chained load + store per thread
    r.l1_misses += rt_cross;
    r.l2_refs += rt_cross;
    r.l2_misses += rt_cross;
    r.coherence += rt_cross;
  }

  // ---- team-scaled serial gather -------------------------------------------
  // Serial sections that read every thread's partial results (reductions,
  // histogram merges) replicate with team size: where the serial profile saw
  // the master scan one partial set, a T-thread run scans T, and the
  // replicated reads land on lines dirty in other cores' caches — cache-to-
  // cache misses on the master's critical path.
  const double gfrac = p.gather_fraction();
  double gather_miss = 0, gather_rescued = 0;
  if (pl.threads > 1 && p.serial_gather > 0) {
    const double cross_frac = 1.0 - static_cast<double>(share) / T;
    // Line fetches: only the first touch per line per scan misses (the
    // profile counts those events); the other replicated reads are L1 hits
    // already priced into the replicated serial cycles.  Scans are
    // sequential walks, so the stream prefetcher rescues them like any
    // other stream: rescued lines become chained L2 hits, the residue full
    // cache-to-cache misses.
    const double invalidated =
        static_cast<double>(p.serial_gather_lines) * (T - 1.0) * cross_frac;
    gather_rescued = kPrefetchCoverage * stream_frac * invalidated;
    gather_miss = invalidated - gather_rescued;
    r.accesses += static_cast<double>(p.serial_gather) * (T - 1.0);
    r.l1_misses += invalidated;
    r.l2_refs += invalidated;
    r.l2_misses += gather_miss;
    r.coherence += invalidated;
  }

  // ---- DTLB / trace cache / ITLB ------------------------------------------
  r.dtlb_misses = std::max(
      0.0, app_accesses - p.page[k].expected_hits(dtlb_sets, dtlb_ways));
  if (corr != nullptr) {
    r.dtlb_misses = std::min(r.dtlb_misses * corr->dtlb, r.accesses);
  }

  const double fetches = static_cast<double>(p.fetches);
  const double avg_uops =
      ratio_or(static_cast<double>(p.uops), fetches, 1.0);
  const bool tc_partition = mt && m.trace_mt_static_partition;
  const double cap_uops =
      static_cast<double>(m.trace_cache_uops) / (tc_partition ? 2.0 : 1.0);
  const double cap_blocks = std::max(1.0, cap_uops / std::max(1.0, avg_uops));
  const std::size_t tc_ways = std::max<std::size_t>(1, m.trace_cache_ways);
  const std::size_t tc_sets = std::max<std::size_t>(
      1, static_cast<std::size_t>(cap_blocks) / tc_ways);
  const double block_hits = p.block.expected_hits(tc_sets, tc_ways);
  const double lines_per_fetch =
      std::max(1.0, avg_uops / static_cast<double>(m.trace_uops_per_line));
  r.tc_refs = fetches * lines_per_fetch;
  r.tc_misses = std::max(0.0, fetches - block_hits) * lines_per_fetch;

  r.itlb_misses = std::max(
      0.0, fetches - p.code_page.expected_hits(itlb_sets, itlb_ways));
  if (corr != nullptr) {
    r.tc_refs *= corr->tc_refs;
    r.tc_misses = std::min(r.tc_misses * corr->tc_miss, r.tc_refs);
    r.itlb_misses = std::min(r.itlb_misses * corr->itlb, fetches);
  }

  // ---- instruction stream --------------------------------------------------
  const double base_instr = p.anchor.valid
                                ? p.anchor.instructions
                                : static_cast<double>(p.uops);
  r.branches = p.anchor.valid
                   ? p.anchor.branches
                   : static_cast<double>(p.iterations);
  r.mispredicts = p.anchor.valid ? p.anchor.mispredicts : 0.0;
  // Parallel-runtime overhead: per-chunk scheduler slice (16 front-end +
  // 4 bookkeeping uops) and the barrier RMW per thread per episode.
  double overhead_uops = 0;
  if (pl.threads > 1) {
    overhead_uops += static_cast<double>(p.loops) * T * 20.0;
    overhead_uops += static_cast<double>(p.barriers) * T * 2.0;
    // Replicated gather-section uops (the serial profile counted one set).
    overhead_uops +=
        gfrac * static_cast<double>(p.uops - p.par_uops) * (T - 1.0);
  }
  r.instructions = base_instr + overhead_uops;

  // ---- latency exposure (mirrors Core::access_memory) ----------------------
  const double issue_per_uop =
      m.cycles_per_uop * (mt ? m.smt_issue_stretch : 1.0);
  r.issue = r.instructions * issue_per_uop;

  const double fc =
      ratio_or(static_cast<double>(p.chained_loads), loads, 0.0);
  const double l2ov = mt ? m.mt_l2_overlap : m.l2_overlap;
  const double memov = mt ? m.mt_mem_overlap : m.mem_overlap;
  const double stov = mt ? m.mt_store_overlap : m.store_overlap;
  const double l1_lat = static_cast<double>(l1.latency);
  const double l2_lat = static_cast<double>(l2.latency);

  // Memory-controller pressure inflates the effective DRAM latency (the
  // simulator resolves this queueing in virtual time; the model closes the
  // loop with one fixed-point refinement).
  const double wb = mem_level * store_share_mem *
                    (corr != nullptr ? corr->bus_writes : 1.0);  // writebacks
  const double over_issue =
      p.anchor.valid ? std::max(1.0, ratio_or(p.anchor.prefetches_issued,
                                              p.anchor.prefetches_useful,
                                              kPrefetchOverIssue))
                     : kPrefetchOverIssue;
  r.bus_prefetches = (r.rescued + gather_rescued) * over_issue;
  r.bus_reads = mem_level + rt_cross + gather_miss;
  r.bus_writes = wb;
  const double mc_busy = (r.bus_reads + r.bus_prefetches) * node.read_occupancy +
                         wb * node.write_occupancy;
  r.mc_busy = mc_busy;

  double mem_lat = static_cast<double>(node.latency);
  double gather_wall = 0, gather_stall = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const double l1_loads = l1_hits * (1.0 - store_share_l1);
    const double l2_level = r.l2_demand_hits + r.rescued;
    const double l2_loads = l2_level * (1.0 - store_share_l2);
    const double l2_stores = l2_level - l2_loads;
    const double mem_loads = mem_level * (1.0 - store_share_mem);
    const double mem_stores = mem_level - mem_loads;

    double stall = 0;
    stall += l1_loads * fc * std::max(0.0, l1_lat - issue_per_uop);
    stall += l2_loads * (fc * std::max(0.0, l2_lat - issue_per_uop) +
                         (1.0 - fc) * l2_lat * l2ov);
    stall += l2_stores * l2_lat * stov;
    if (l3 != nullptr) {
      // L2 misses the L3 absorbs: exposed like L2 hits, at the L3 latency.
      const double l3_lat = static_cast<double>(l3->latency);
      const double l3_loads = l3_level * (1.0 - store_share_mem);
      stall += l3_loads * (fc * std::max(0.0, l3_lat - issue_per_uop) +
                           (1.0 - fc) * l3_lat * l2ov);
      stall += (l3_level - l3_loads) * l3_lat * stov;
    }
    stall += mem_loads * (fc * mem_lat + (1.0 - fc) * mem_lat * memov);
    stall += mem_stores * mem_lat * stov;
    stall += rt_cross * mem_lat;  // barrier RMWs are chained: full exposure
    r.stall_mem = stall;

    r.stall_tlb = (r.dtlb_misses + r.itlb_misses) *
                  static_cast<double>(m.tlb_walk_penalty);
    r.stall_fe = r.tc_misses * static_cast<double>(m.trace_miss_penalty);
    r.stall_branch =
        r.mispredicts * static_cast<double>(m.mispredict_penalty);
    r.cycles =
        r.issue + r.stall_mem + r.stall_tlb + r.stall_fe + r.stall_branch;

    // ---- wall time ---------------------------------------------------------
    const double sf = p.serial_uop_fraction();
    double wall_cpu;
    if (pl.threads <= 1) {
      wall_cpu = r.cycles;
    } else {
      const double serial_cycles =
          serial_base != nullptr ? serial_base->cycles : r.cycles;
      const double imb = p.imbalance(k);
      // Serial sections run on the master while the other contexts wait —
      // but the simulator's SMT degradation is per *configured* core
      // occupancy, not per instantaneous activity, so with HT on the
      // master pays the issue stretch even alone.
      const double serial_mode = mt ? m.smt_issue_stretch : 1.0;
      // Gather sections replicate with team size (scanned partial sets) at
      // that serial-mode speed, plus the coherence upgrade of the
      // replicated reads: rescued lines are chained L2 hits, the residue
      // full cache-to-cache misses, all exposed on the master's critical
      // path.
      gather_stall = gather_miss * mem_lat + gather_rescued * l2_lat;
      gather_wall =
          sf * serial_cycles * gfrac * (T - 1.0) * serial_mode + gather_stall;
      wall_cpu = sf * serial_cycles * serial_mode + gather_wall +
                 (1.0 - sf) * r.cycles / T * imb;
      wall_cpu += static_cast<double>(p.barriers) * kBarrierLatencyFrac *
                  static_cast<double>(node.latency);
    }
    const double chips = std::max(1, pl.chips_used);
    const double bus_busy =
        ((mem_level + r.bus_prefetches) * topo.link_read_occupancy +
         wb * topo.link_write_occupancy) /
        chips;
    r.wall = std::max({wall_cpu, bus_busy, mc_busy});

    // Refine the DRAM latency from the controller utilisation seen this
    // pass, then recompute once.
    const double util = mc_busy / std::max(1.0, wall_cpu);
    mem_lat = static_cast<double>(node.latency) *
              (1.0 + kQueueGain * std::min(1.5, util));
  }
  // The replicated gather work is master-context busy time: fold it into
  // the cycle/stall totals after the wall loop so the parallel-portion term
  // (r.cycles / T) stays free of serial-section cycles.
  r.stall_mem += gather_stall;
  r.cycles += gather_wall;
  return r;
}

}  // namespace

Prediction predict(const KernelProfile& profile,
                   const sim::MachineParams& params, const Placement& place) {
  const KernelProfile::Anchor& a = profile.anchor;

  // First pass: un-anchored serial analysis, from which the measured-over-
  // modelled capacity corrections are derived.  Second pass re-runs the
  // serial analysis with those corrections so the base reproduces the
  // anchor; the target placement then extrapolates from that calibrated
  // footing, with coherence/runtime traffic added unscaled on top.
  const Raw base0 =
      analyze(profile, params, Placement::serial(), nullptr, nullptr);
  Correction c;
  if (a.valid) {
    c.l1_miss = anchor_ratio(a.l1d_misses, base0.l1_misses);
    c.l2_miss = anchor_ratio(a.l2_misses, base0.l2_misses);
    c.dtlb = anchor_ratio(a.dtlb_misses, base0.dtlb_misses);
    c.tc_refs = anchor_ratio(a.tc_refs, base0.tc_refs);
    c.tc_miss = anchor_ratio(a.tc_misses, base0.tc_misses);
    c.itlb = anchor_ratio(a.itlb_misses, base0.itlb_misses);
    c.bus_writes = anchor_ratio(a.bus_writes, base0.bus_writes);
  }
  const Raw base = analyze(profile, params, Placement::serial(), nullptr, &c);
  const Raw raw = place.threads <= 1 && place.contexts_per_core <= 1
                      ? base
                      : analyze(profile, params, place, &base, &c);

  const double r_cyc = a.valid ? anchor_ratio(a.cycles, base.cycles) : 1.0;
  const double r_wall = a.valid ? anchor_ratio(a.wall_cycles, base.wall) : 1.0;

  Prediction out;
  out.coherence_transfers = raw.coherence;
  out.l1d_refs = raw.accesses;
  out.l1d_misses = std::min(raw.l1_misses, out.l1d_refs);
  out.l2_refs = out.l1d_misses;
  out.l2_misses = std::min(raw.l2_misses, out.l2_refs);
  out.tc_refs = raw.tc_refs;
  out.tc_misses = std::min(raw.tc_misses, out.tc_refs);
  out.itlb_refs = static_cast<double>(profile.fetches);
  out.itlb_misses = raw.itlb_misses;
  out.dtlb_misses = raw.dtlb_misses;
  out.branches = raw.branches;
  out.mispredicts = raw.mispredicts;
  out.bus_reads = raw.bus_reads;
  out.bus_writes = raw.bus_writes;
  out.bus_prefetches = raw.bus_prefetches;

  out.instructions = raw.instructions;
  out.cycles = raw.cycles * r_cyc;
  out.stall_mem = raw.stall_mem * r_cyc;
  out.stall_fe = raw.stall_fe * r_cyc;
  out.stall_tlb = raw.stall_tlb * r_cyc;
  out.stall_branch = raw.stall_branch * r_cyc;
  out.wall_cycles = raw.wall * r_wall;
  out.serial_wall_cycles = a.valid ? a.wall_cycles : base.wall;
  out.speedup = out.wall_cycles > 0
                    ? out.serial_wall_cycles / out.wall_cycles
                    : 1.0;
  out.mc_utilization =
      out.wall_cycles > 0 ? raw.mc_busy / out.wall_cycles : 0.0;

  perf::Metrics& mtx = out.metrics;
  const auto rate = [](double n, double d) { return d > 0 ? n / d : 0.0; };
  mtx.l1d_miss_rate = rate(out.l1d_misses, out.l1d_refs);
  mtx.l2_miss_rate = rate(out.l2_misses, out.l2_refs);
  mtx.trace_cache_miss_rate = rate(out.tc_misses, out.tc_refs);
  mtx.itlb_miss_rate = rate(out.itlb_misses, out.itlb_refs);
  mtx.dtlb_misses = out.dtlb_misses;
  mtx.stalled_fraction =
      rate(out.stall_mem + out.stall_fe + out.stall_tlb + out.stall_branch,
           out.cycles);
  mtx.branch_prediction_rate =
      out.branches > 0 ? 1.0 - out.mispredicts / out.branches : 0.0;
  mtx.prefetch_bus_fraction =
      rate(out.bus_prefetches,
           out.bus_reads + out.bus_writes + out.bus_prefetches);
  mtx.cpi = rate(out.cycles, out.instructions);
  return out;
}

}  // namespace paxsim::model
