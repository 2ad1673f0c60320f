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
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

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
  /// kernel's loops across static/dynamic/guided without editing kernels);
  /// a loop marked Schedule::keep_static stays static and takes only the
  /// override's chunk.  Applied at run_loop entry, so it covers
  /// parallel_for and parallel_reduce alike.  Single-thread teams execute
  /// serial_for, which has no schedule — overrides are placement-neutral
  /// there by construction.  Like grain, an override changes the
  /// interleaving, so the experiment engine keys its memo cache on it.
  void set_schedule_override(Schedule sched) noexcept {
    sched_override_ = sched;
    has_sched_override_ = true;
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

 private:
  static std::uint32_t backedge_site(sim::BlockId body_id) noexcept {
    return 0x40000000u + body_id;
  }

  void fork();
  void join();

  /// Recomputes tie_of_ (context flat cpu ids) from current placements.
  void recompute_ties();
  /// Builds the static-schedule chunk lists.
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
    if (has_sched_override_) {
      sched = sched.keep_static
                  ? Schedule{ScheduleKind::kStatic, sched_override_.chunk, true}
                  : sched_override_;
    }
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
    // clocks break by the context's flat cpu id: one machine-global total
    // order on (clock, flat id), independent of rank numbering, that every
    // golden result was produced under.
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
  IndexedMinHeap ready_;  ///< run_loop's pick structure, reused across loops
  /// Member list handed to on_team(), reused to avoid per-event allocation.
  std::vector<const sim::HwContext*> members_scratch_;
};

}  // namespace paxsim::xomp
