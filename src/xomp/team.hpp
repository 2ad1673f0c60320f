// paxsim/xomp/team.hpp
//
// The OpenMP-like runtime: a Team is a set of simulated threads, each pinned
// to one hardware context of the Machine for the duration of a run (the
// paper pins implicitly via `maxcpus` masking plus the default Linux
// scheduler; placement is chosen by the harness).
//
// Execution model — virtual-time interleaving
// -------------------------------------------
// The whole simulation runs on one host thread.  A parallel loop is executed
// by repeatedly advancing the simulated thread with the *smallest virtual
// clock*, giving it a small grain of iterations.  Because the caches, TLBs,
// predictor tables, bus and prefetcher are all stateful and shared, the
// interference between threads (and between co-scheduled programs) emerges
// from the interleaving itself rather than from closed-form contention
// formulas.
//
// Per dynamic iteration the runtime models the front end (trace-cache fetch
// of the body's code block) and the loop back-edge branch; the body callback
// performs the actual instrumented loads/stores/ALU work.
//
// Parallel backend (src/par/)
// ---------------------------
// enable_parallel() arms a host-parallel execution mode for run_loop: the
// team's contexts are sharded into logical processes (LPs) along coherence
// domain boundaries and each LP replays its share of the virtual-time heap
// on its own host thread, synchronised by the conservative token protocol in
// par::Session.  The global grain order is (virtual clock, context flat cpu
// id) — exactly the serial heap's order — so the parallel path is
// bit-identical to the serial one; any interleaving the conflict detector
// cannot prove equivalent aborts the region with par::Abort and the caller
// re-runs serially.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "par/crew.hpp"
#include "par/par.hpp"
#include "perf/counters.hpp"
#include "sim/machine.hpp"
#include "xomp/min_heap.hpp"
#include "xomp/schedule.hpp"

namespace paxsim::xomp {

/// Iteration grain: how many consecutive iterations a thread executes before
/// the runtime re-evaluates which thread is furthest behind in virtual time.
/// 1 is the highest-fidelity setting; larger grains trade interleaving
/// resolution for simulation speed.
inline constexpr std::size_t kDefaultGrain = 1;

/// A team of simulated OpenMP threads.
class Team {
 public:
  /// Binds thread rank r to hardware context cpus[r] for the program whose
  /// events accumulate in @p counters, whose data lives in @p space and
  /// whose code segment starts at space.code_base().  The team allocates its
  /// own runtime-shared lines (loop cursor, lock, barrier, reduction slots)
  /// from @p space so that runtime coherence traffic is modelled faithfully.
  /// Throws std::invalid_argument when @p cpus is empty or names a context
  /// outside @p machine's chips x cores x contexts shape.
  Team(sim::Machine& machine, std::vector<sim::LogicalCpu> cpus,
       perf::CounterSet* counters, sim::AddressSpace& space);

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(ctxs_.size()); }

  /// Iteration grain (see kDefaultGrain).  Runtime-configurable: larger
  /// grains simulate faster but change the interleaving — and with it every
  /// emergent contention number — so golden-signature comparisons are only
  /// valid between runs of equal grain, and the experiment engine keys its
  /// memo cache on grain for the same reason.
  void set_grain(std::size_t grain) noexcept {
    grain_ = grain == 0 ? 1 : grain;
  }
  [[nodiscard]] std::size_t grain() const noexcept { return grain_; }

  /// Overrides the schedule of every parallel loop the team runs, replacing
  /// whatever Schedule the kernel passed (the paxtune schedule axis: tune a
  /// kernel's loops across static/dynamic/guided without editing kernels).
  /// Applied at run_loop entry, so it covers parallel_for, parallel_reduce,
  /// the serial heap and the host-parallel backend alike.  Single-thread
  /// teams execute serial_for, which has no schedule — overrides are
  /// placement-neutral there by construction.  Like grain, an override
  /// changes the interleaving, so the experiment engine keys its memo cache
  /// on it.
  void set_schedule_override(Schedule sched) noexcept {
    sched_override_ = sched;
    has_sched_override_ = true;
  }
  void clear_schedule_override() noexcept { has_sched_override_ = false; }
  [[nodiscard]] bool has_schedule_override() const noexcept {
    return has_sched_override_;
  }

  [[nodiscard]] sim::Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] sim::HwContext& context_of(int rank) noexcept { return *ctxs_[rank]; }
  [[nodiscard]] perf::CounterSet& counters() noexcept { return *counters_; }

  /// Largest virtual clock across the team (the program's wall time so far).
  [[nodiscard]] double wall_time() const noexcept;

  /// #pragma omp parallel for — executes body(i, ctx, rank) for
  /// i in [begin, end) under @p sched.  Forks from and joins to the team's
  /// common clock (implicit barrier at both ends, with the barrier's
  /// shared-line coherence traffic modelled).
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Schedule sched,
                    CodeBlock body_block, Body&& body) {
    fork();
    run_loop(begin, end, sched, body_block, std::forward<Body>(body));
    join();
  }

  /// Sum-reduction variant: accumulates body's return value over all
  /// iterations; the cross-thread combine is executed on the master with its
  /// cost modelled.  Returns the reduced sum.
  template <typename Body>
  double parallel_reduce(std::size_t begin, std::size_t end, Schedule sched,
                         CodeBlock body_block, Body&& body) {
    fork();
    std::vector<double> partial(static_cast<std::size_t>(size()), 0.0);
    run_loop(begin, end, sched, body_block,
             [&](std::size_t i, sim::HwContext& ctx, int rank) {
               partial[static_cast<std::size_t>(rank)] += body(i, ctx, rank);
             });
    join();
    // Master combines the partials: one load + one add per thread.  The
    // combine is ordered by the surrounding join barriers; the sink event is
    // accounting vocabulary, not an extra happens-before edge.
    sim::HwContext& master = *ctxs_[0];
    double sum = 0.0;
    for (int r = 0; r < size(); ++r) {
      const sim::Addr slot = reduction_addr_ + static_cast<sim::Addr>(r) * 8;
      master.load(slot);
      master.alu(1);
      sum += partial[static_cast<std::size_t>(r)];
      sync_combine(master, slot);
    }
    join();
    return sum;
  }

  /// Serial section on the master thread; other threads idle (their clocks
  /// catch up at the next fork).  body(ctx).
  template <typename Body>
  void serial(Body&& body) {
    body(*ctxs_[0]);
  }

  /// Serial loop on the master with per-iteration front-end and back-edge
  /// modelling, mirroring what parallel_for does per thread.
  template <typename Body>
  void serial_for(std::size_t begin, std::size_t end, CodeBlock body_block,
                  Body&& body) {
    sim::HwContext& ctx = *ctxs_[0];
    for (std::size_t i = begin; i < end; ++i) {
      ctx.exec_block(body_block.id, body_block.uops);
      body(i, ctx);
      ctx.branch(backedge_site(body_block.id), i + 1 < end);
    }
  }

  /// Explicit barrier: models the shared-counter coherence traffic and
  /// synchronises all thread clocks to the maximum.
  void barrier();

  /// #pragma omp critical — charges master-lock acquisition (a chained load
  /// plus a store to a shared lock line, which ping-pongs between caches)
  /// and runs body(ctx) on the calling rank.
  template <typename Body>
  void critical(int rank, Body&& body) {
    par_guard_construct();
    sim::HwContext& ctx = *ctxs_[rank];
    ctx.load(lock_addr_, sim::Dep::kChained);
    ctx.store(lock_addr_);
    sync_acquire(ctx, lock_addr_);
    body(ctx);
    sync_release(ctx, lock_addr_);
  }

  /// #pragma omp atomic — a lock-free read-modify-write on @p addr from
  /// thread @p rank: the chained load plus store makes the line ping-pong
  /// between writers exactly like a real atomic increment.
  /// The acquire/release bracket lock-orders atomics on the same address
  /// against each other for the race detector (see sim/hooks.hpp).
  void atomic_rmw(int rank, sim::Addr addr) {
    par_guard_construct();
    sim::HwContext& ctx = *ctxs_[rank];
    sync_acquire(ctx, addr);
    ctx.load(addr, sim::Dep::kChained);
    ctx.alu(1);
    ctx.store(addr);
    sync_release(ctx, addr);
  }

  /// #pragma omp sections — each callable in @p sections runs exactly once
  /// on some thread, assigned in virtual-time order (the thread furthest
  /// behind takes the next section).  Implicit barrier at both ends.
  /// Each section receives (HwContext&, rank).
  template <typename Section>
  void parallel_sections(std::vector<Section> sections, CodeBlock block) {
    fork();
    std::size_t next = 0;
    std::vector<bool> busy_done(static_cast<std::size_t>(size()), false);
    while (next < sections.size()) {
      // Pick the thread furthest behind in virtual time.
      int pick = 0;
      for (int r = 1; r < size(); ++r) {
        if (ctxs_[r]->now() < ctxs_[pick]->now()) pick = r;
      }
      sim::HwContext& ctx = *ctxs_[pick];
      ctx.exec_block(block.id, block.uops);
      sections[next](ctx, pick);
      ++next;
    }
    join();
  }

  /// #pragma omp single — exactly one thread (the furthest behind) runs
  /// body(ctx); everyone synchronises afterwards.
  template <typename Body>
  void single(Body&& body) {
    fork();
    int pick = 0;
    for (int r = 1; r < size(); ++r) {
      if (ctxs_[r]->now() < ctxs_[pick]->now()) pick = r;
    }
    body(*ctxs_[pick]);
    join();
  }

  /// Flushes all contexts' cycle accumulators into the counter set.
  void flush();

  /// Migrates thread @p rank to hardware context @p to (scheduler support).
  /// The thread's virtual clock carries over (bumped to the destination's
  /// if that is later) plus the OS context-switch penalty; the destination
  /// core's cold private caches are what the thread actually pays for.
  /// The previous context keeps its clock and simply falls idle.  Throws
  /// std::invalid_argument when @p to lies outside the machine.
  void repin(int rank, sim::LogicalCpu to, double os_penalty_cycles);

  /// Current hardware context of thread @p rank.
  [[nodiscard]] sim::LogicalCpu placement_of(int rank) const noexcept {
    return ctxs_[rank]->id();
  }

  /// Arms the host-parallel backend: parallel loops may run across up to
  /// @p threads host threads (sharded along coherence-domain boundaries),
  /// with speculation bounded to @p window virtual cycles ahead of the
  /// slowest LP (0 disables the bound).  Results are bit-identical to the
  /// serial path; regions the conflict detector cannot prove equivalent
  /// throw par::Abort out of the parallel construct, after which the caller
  /// must discard the run (reset the machine) and re-execute serially.
  /// @p threads <= 1 disarms the backend.
  void enable_parallel(int threads, double window);
  [[nodiscard]] bool parallel_enabled() const noexcept {
    return par_ != nullptr;
  }

 private:
  static std::uint32_t backedge_site(sim::BlockId body_id) noexcept {
    return 0x40000000u + body_id;
  }

  void fork();
  void join();

  /// Per-region scratch for the host-parallel backend (see enable_parallel).
  struct ParRuntime {
    std::unique_ptr<par::Session> session;
    std::unique_ptr<par::Crew> crew;
    std::vector<IndexedMinHeap> heaps;          // one ready-heap per LP
    std::vector<perf::CounterSet> rank_counters;  // LP-local counter shards
    std::vector<int> rank_lp;      // rank -> LP, recomputed per region
    std::vector<int> domain_lp;    // coherence domain -> LP (-1: unused)
    std::vector<double> initial_lbs;  // per-LP starting clock lower bound
    int max_lps = 0;
    int n_lp = 0;
  };

  /// Recomputes tie_of_ (context flat cpu ids) from current placements.
  void recompute_ties();
  /// Computes the region's domain->LP sharding; false when the region must
  /// run serially (fewer than two LPs).  Counts the fallback in the stats.
  bool par_region_prepare();
  /// Arms session + machine and redirects counters to per-rank shards.
  void par_region_begin();
  /// Disarms and, when @p ok, folds the shards back in rank order.
  void par_region_end(bool ok);
  /// Aborts the enclosing parallel region: critical/atomic_rmw read sibling
  /// clocks and serialise on shared lines in ways the LP protocol does not
  /// model, so inside a parallel region they throw par::Abort (the run is
  /// then redone serially).  No-op on the serial path.
  void par_guard_construct();
  /// Builds the static-schedule chunk lists (shared by both run_loop paths).
  void build_static_chunks(
      std::size_t begin, std::size_t end, Schedule sched,
      std::vector<std::vector<std::pair<std::size_t, std::size_t>>>& chunks);

  // Analysis-sink notifications (no-ops while no TraceSink is attached).
  // Out of line so the templates above stay free of sink plumbing.
  void notify_team(sim::TraceSink::TeamEvent ev);
  void notify_loop(sim::BlockId body, std::size_t begin, std::size_t end);
  void sync_acquire(sim::HwContext& ctx, sim::Addr addr);
  void sync_release(sim::HwContext& ctx, sim::Addr addr);
  void sync_combine(sim::HwContext& ctx, sim::Addr addr);

  /// Core of parallel_for: virtual-time interleaved execution.
  template <typename Body>
  void run_loop(std::size_t begin, std::size_t end, Schedule sched,
                CodeBlock body_block, Body&& body) {
    if (has_sched_override_) sched = sched_override_;
    notify_loop(body_block.id, begin, end);
    const int nt = size();
    if (nt == 1) {
      serial_for(begin, end, body_block, [&](std::size_t i, sim::HwContext& c) {
        body(i, c, 0);
      });
      return;
    }
    const std::size_t n = end > begin ? end - begin : 0;
    if (n == 0) return;

    if (par_ != nullptr && par_region_prepare()) {
      run_loop_par(begin, end, sched, body_block, body);
      return;
    }

    struct ThreadRun {
      std::size_t pos = 0;   // next iteration in current chunk
      std::size_t lim = 0;   // end of current chunk
    };
    std::vector<ThreadRun> run(static_cast<std::size_t>(nt));

    // Static schedule: contiguous per-thread blocks (OpenMP default) or
    // round-robin chunks when a chunk size is given.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> static_chunks;
    std::vector<std::size_t> static_next(static_cast<std::size_t>(nt), 0);
    std::size_t shared_next = begin;  // dynamic/guided pull cursor

    build_static_chunks(begin, end, sched, static_chunks);

    auto acquire = [&](int rank, ThreadRun& tr) -> bool {
      // Chunk acquisition executes a slice of runtime scheduler code:
      // model its front end plus a few bookkeeping uops.
      sim::HwContext& ctx = *ctxs_[rank];
      ctx.exec_block(kRuntimeBlockBase + static_cast<sim::BlockId>(rank), 16);
      ctx.alu(4);
      switch (sched.kind) {
        case ScheduleKind::kStatic: {
          auto& mine = static_chunks[static_cast<std::size_t>(rank)];
          auto& idx = static_next[static_cast<std::size_t>(rank)];
          if (idx >= mine.size()) return false;
          tr.pos = mine[idx].first;
          tr.lim = mine[idx].second;
          ++idx;
          return true;
        }
        case ScheduleKind::kDynamic: {
          if (shared_next >= end) return false;
          // The shared cursor is a contended cache line.
          ctx.load(cursor_addr_, sim::Dep::kChained);
          ctx.store(cursor_addr_);
          const std::size_t c = sched.chunk == 0 ? 1 : sched.chunk;
          tr.pos = shared_next;
          tr.lim = std::min(end, shared_next + c);
          shared_next = tr.lim;
          return true;
        }
        case ScheduleKind::kGuided: {
          if (shared_next >= end) return false;
          ctx.load(cursor_addr_, sim::Dep::kChained);
          ctx.store(cursor_addr_);
          const std::size_t remaining = end - shared_next;
          const std::size_t cmin = sched.chunk == 0 ? 1 : sched.chunk;
          const std::size_t c = std::max(cmin, remaining / (2 * static_cast<std::size_t>(nt)));
          tr.pos = shared_next;
          tr.lim = std::min(end, shared_next + c);
          shared_next = tr.lim;
          return true;
        }
      }
      return false;
    };

    // Runnable threads in a min-heap keyed by their virtual clock.  Equal
    // clocks break by the context's flat cpu id so the serial heap and the
    // parallel backend's cross-LP event merge share one machine-global total
    // order on (clock, flat id) — the bit-identity invariant depends on it.
    ready_.reset(nt);
    for (int r = 0; r < nt; ++r) {
      ready_.push(r, ctxs_[r]->now(), tie_of_[static_cast<std::size_t>(r)]);
    }
    while (!ready_.empty()) {
      const int pick = ready_.top();
      ThreadRun& tr = run[static_cast<std::size_t>(pick)];
      if (tr.pos >= tr.lim && !acquire(pick, tr)) {
        ready_.pop();
        continue;
      }
      sim::HwContext& ctx = *ctxs_[pick];
      for (std::size_t g = 0; g < grain_ && tr.pos < tr.lim; ++g, ++tr.pos) {
        ctx.exec_block(body_block.id, body_block.uops);
        body(tr.pos, ctx, pick);
        ctx.branch(backedge_site(body_block.id), tr.pos + 1 < tr.lim);
      }
      // Only the picked thread's clock moved (acquire() may have advanced
      // it too, before retiring above).
      ready_.update(pick, ctx.now());
    }
  }

  /// Host-parallel core of parallel_for.  Each LP replays exactly the serial
  /// heap loop restricted to its own ranks; the cross-LP order is restored
  /// by par::Session's token protocol on the grain keys (clock, flat id).
  /// The per-grain charging below is a line-for-line copy of run_loop's —
  /// any divergence breaks bit-identity, which fastpath_diff enforces.
  template <typename Body>
  void run_loop_par(std::size_t begin, std::size_t end, Schedule sched,
                    CodeBlock body_block, Body& body) {
    ParRuntime& rt = *par_;
    const int nt = size();

    struct ThreadRun {
      std::size_t pos = 0;
      std::size_t lim = 0;
    };
    std::vector<ThreadRun> run(static_cast<std::size_t>(nt));
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> static_chunks;
    std::vector<std::size_t> static_next(static_cast<std::size_t>(nt), 0);
    std::size_t shared_next = begin;  // token-ordered: holders only
    build_static_chunks(begin, end, sched, static_chunks);

    auto lp_main = [&](int lp) {
      par::Session& s = *rt.session;
      par::Session::LpScope scope(s, lp);
      IndexedMinHeap& ready = rt.heaps[static_cast<std::size_t>(lp)];
      ready.reset(nt);
      for (int r = 0; r < nt; ++r) {
        if (rt.rank_lp[static_cast<std::size_t>(r)] == lp) {
          ready.push(r, ctxs_[r]->now(), tie_of_[static_cast<std::size_t>(r)]);
        }
      }
      while (!ready.empty()) {
        const int pick = ready.top();
        // The grain key is the pick-time clock — the same key the serial
        // heap would have dequeued this context at.
        s.begin_grain(lp, par::Key{ready.key_of(pick),
                                   tie_of_[static_cast<std::size_t>(pick)]});
        sim::HwContext& ctx = *ctxs_[pick];
        ThreadRun& tr = run[static_cast<std::size_t>(pick)];
        bool have = tr.pos < tr.lim;
        if (!have) {
          ctx.exec_block(kRuntimeBlockBase + static_cast<sim::BlockId>(pick),
                         16);
          ctx.alu(4);
          switch (sched.kind) {
            case ScheduleKind::kStatic: {
              auto& mine = static_chunks[static_cast<std::size_t>(pick)];
              auto& idx = static_next[static_cast<std::size_t>(pick)];
              if (idx < mine.size()) {
                tr.pos = mine[idx].first;
                tr.lim = mine[idx].second;
                ++idx;
                have = true;
              }
              break;
            }
            case ScheduleKind::kDynamic: {
              // The cursor is host-shared: even the terminal >= end read
              // must be token-ordered, or a fast LP could observe chunks
              // taken by grains ordered after it and quit early.
              par::Session::gate_current(rt.session.get());
              if (shared_next < end) {
                ctx.load(cursor_addr_, sim::Dep::kChained);
                ctx.store(cursor_addr_);
                const std::size_t c = sched.chunk == 0 ? 1 : sched.chunk;
                tr.pos = shared_next;
                tr.lim = std::min(end, shared_next + c);
                shared_next = tr.lim;
                have = true;
              }
              break;
            }
            case ScheduleKind::kGuided: {
              par::Session::gate_current(rt.session.get());
              if (shared_next < end) {
                ctx.load(cursor_addr_, sim::Dep::kChained);
                ctx.store(cursor_addr_);
                const std::size_t remaining = end - shared_next;
                const std::size_t cmin = sched.chunk == 0 ? 1 : sched.chunk;
                const std::size_t c = std::max(
                    cmin, remaining / (2 * static_cast<std::size_t>(nt)));
                tr.pos = shared_next;
                tr.lim = std::min(end, shared_next + c);
                shared_next = tr.lim;
                have = true;
              }
              break;
            }
          }
        }
        if (!have) {
          s.end_grain(lp);
          ready.pop();
          continue;
        }
        for (std::size_t g = 0; g < grain_ && tr.pos < tr.lim; ++g, ++tr.pos) {
          ctx.exec_block(body_block.id, body_block.uops);
          body(tr.pos, ctx, pick);
          ctx.branch(backedge_site(body_block.id), tr.pos + 1 < tr.lim);
        }
        s.end_grain(lp);
        ready.update(pick, ctx.now());
      }
    };

    par_region_begin();
    bool ok = true;
    try {
      rt.crew->run(rt.n_lp, lp_main);
    } catch (const par::Abort&) {
      ok = false;
    }
    par_region_end(ok);
    if (!ok) throw par::Abort{"parallel region aborted"};
  }

  static constexpr sim::BlockId kRuntimeBlockBase = 0x00F00000;

  sim::Machine* machine_;
  std::vector<sim::HwContext*> ctxs_;
  perf::CounterSet* counters_;
  sim::Addr code_base_ = 0;
  sim::Addr lock_addr_;
  sim::Addr cursor_addr_;
  sim::Addr barrier_addr_;
  sim::Addr reduction_addr_;
  std::size_t grain_ = kDefaultGrain;
  Schedule sched_override_{};          ///< see set_schedule_override
  bool has_sched_override_ = false;
  /// Context flat cpu id per rank (chip-major, then core, then SMT context):
  /// the machine-global heap tie-break.  Recomputed on repin.
  std::vector<int> tie_of_;
  std::unique_ptr<ParRuntime> par_;  ///< null unless enable_parallel() armed
  IndexedMinHeap ready_;  ///< run_loop's pick structure, reused across loops
  /// Member list handed to on_team(), reused to avoid per-event allocation.
  std::vector<const sim::HwContext*> members_scratch_;
};

}  // namespace paxsim::xomp
