// paxsim/sim/hooks.hpp
//
// Observation interface for the checker (src/check/), the tracer
// (src/trace/) and the reuse profiler (src/model/): a TraceSink attached to
// a Machine receives the simulator's memory-access and fetch stream plus
// synchronization callbacks from the xomp runtime, all in virtual-time
// execution order.
//
// Cost discipline: every call site is on the *reference* (out-of-line) path
// only — the inlined L1/DTLB fast path never consults the sink.  A machine
// takes the reference path exactly while a sink is attached
// (Core::set_trace_sink), so a machine without one pays nothing.  A sink
// observes; it must never mutate simulator state (all references handed to
// it are const).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/types.hpp"

namespace paxsim::sim {

class HwContext;

/// Memory-hierarchy level that served a data access.  kL3 occurs only on
/// three-level topologies (sim/topology.hpp).
enum class MemLevel : std::uint8_t { kL1, kL2, kL3, kMem };

/// Receiver of the simulated machine's event stream.  Attach with
/// Machine::set_trace_sink(); the xomp runtime discovers it through the
/// machine and adds the synchronization vocabulary.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// True when the xomp runtime must flush every context at each region
  /// fork (the tracer's per-region stacks).  Extra flushes change counter
  /// rounding, so every other sink keeps its runs bit-identical.
  [[nodiscard]] virtual bool flushes_at_fork() const noexcept { return false; }

  /// One committed data access (load or store) by @p ctx at byte address
  /// @p addr.  Called at the end of the reference memory path, after all
  /// cache/TLB/coherence state effects have been applied.  @p dep is the
  /// dependence class the program declared for the access (chained loads
  /// expose their full latency; the reuse profiler bins them separately
  /// because they are what Hyper-Threading overlaps).
  virtual void on_access(const HwContext& ctx, Addr addr, bool is_store,
                         Dep dep) = 0;

  /// One front-end fetch of the code block at @p code_addr by @p ctx
  /// (reference path of exec_block).  @p uops is the block's issue width
  /// in uops — the front-end cost model's unit.
  virtual void on_fetch(const HwContext& ctx, Addr code_addr,
                        std::uint32_t uops) = 0;

  /// A work-sharing loop over [@p begin, @p end) is about to be dispatched
  /// by the xomp runtime on @p ctx's team; @p body identifies the loop
  /// body's code block.  Fired once per dynamic loop instance (including
  /// single-thread teams), before any iteration executes.  Default no-op so
  /// existing sinks need not care.
  virtual void on_loop(const HwContext& ctx, BlockId body, std::size_t begin,
                       std::size_t end) {
    (void)ctx; (void)body; (void)begin; (void)end;
  }

  /// Team lifecycle events from the xomp runtime.  @p members lists the
  /// hardware contexts currently executing the team's threads, in rank
  /// order.  kFork/kBarrier/kJoin all establish an all-to-all
  /// happens-before edge across the members (the runtime synchronises every
  /// thread clock at each of them).
  enum class TeamEvent : std::uint8_t { kCreate, kFork, kBarrier, kJoin };
  virtual void on_team(TeamEvent ev, const void* team,
                       const HwContext* const* members, std::size_t count) = 0;

  /// Declares [base, base+bytes) as runtime-internal synchronization
  /// storage (lock word, loop cursor, barrier counter, reduction slots).
  /// Accesses there model atomic hardware operations and are exempt from
  /// data-race checking.
  virtual void on_runtime_range(Addr base, std::size_t bytes) = 0;

  /// Synchronization operation on the object identified by @p addr:
  /// critical enter / lock acquire (kAcquire), critical exit / lock release
  /// (kRelease), and the master-side reduction combine (kCombine, which
  /// rides the join barrier for ordering and is reported for accounting).
  /// An atomic read-modify-write is bracketed as kAcquire + kRelease on the
  /// target address, so the plain load/store it issues in between are
  /// lock-ordered against other atomics on the same address.
  enum class SyncOp : std::uint8_t { kAcquire, kRelease, kCombine };
  virtual void on_sync(SyncOp op, const HwContext& ctx, Addr addr) = 0;

  /// Thread migration (Team::repin): the logical thread running on @p from
  /// continues on @p to, carrying its happens-before history with it.
  virtual void on_thread_moved(const HwContext& from, const HwContext& to) = 0;

  // ---- stall-attribution vocabulary (src/trace/) --------------------------
  // Default no-ops so sinks that only need the access stream (the checker,
  // the reuse profiler) stay untouched.  All values are fractional cycles.

  /// Stall decomposition of the access that on_access() is about to report:
  /// @p level is the hierarchy level that served it, @p dtlb_walk the page
  /// walk charged directly to the context's TLB stall class (0 on a DTLB
  /// hit), @p stall the exposed memory-stall cycles the access returned to
  /// the context, @p queue_wait the queueing component of the load-to-use
  /// latency (FSB + memory-controller backlog plus any in-flight-fill
  /// arrival wait), and @p total_wait the full latency + arrival wait.  The
  /// exposed stall splits proportionally: stall * queue_wait / total_wait
  /// of it was spent queueing, the rest being served.
  virtual void on_access_stall(const HwContext& ctx, MemLevel level,
                               double dtlb_walk, double stall,
                               double queue_wait, double total_wait) {
    (void)ctx; (void)level; (void)dtlb_walk;
    (void)stall; (void)queue_wait; (void)total_wait;
  }

  /// Front-end cost of the fetch that on_fetch() is about to report:
  /// @p itlb_walk is the ITLB page-walk stall (0 on a hit) and @p decode
  /// the trace-cache rebuild stall (0 when every line hit).
  virtual void on_fetch_stall(const HwContext& ctx, double itlb_walk,
                              double decode) {
    (void)ctx; (void)itlb_walk; (void)decode;
  }

  /// Accumulator flush (barrier, region boundary, completion): the cycle
  /// deltas @p ctx is about to fold into its counter set, before rounding.
  /// @p busy is issue/execute time (of which @p smt_stretch is the extra
  /// cost of sharing the core's issue width with the sibling context); the
  /// stall_* terms are the four stall classes.  Everything is a delta since
  /// the previous flush; the stack accountant attributes each delta to the
  /// context's current parallel region.
  virtual void on_flush(const HwContext& ctx, double busy, double smt_stretch,
                        double stall_mem, double stall_branch,
                        double stall_tlb, double stall_fe) {
    (void)ctx; (void)busy; (void)smt_stretch; (void)stall_mem;
    (void)stall_branch; (void)stall_tlb; (void)stall_fe;
  }
};

}  // namespace paxsim::sim
