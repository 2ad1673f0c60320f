// paxsim/trace/tracer.hpp
//
// The stall-attribution accountant: a sim::TraceSink that turns the
// reference-path event stream of one run into per-context CPI stacks,
// per-region aggregates and (in the event modes) ring-buffered event
// records.  Usage mirrors check::Checker (harness::run_traced does exactly
// this):
//
//   trace::Tracer tracer(machine, sim::TraceMode::kStacks);  // attaches
//   ... run the workload ...
//   trace::TraceReport report = tracer.finish(machine.wall_time());
//
// Attachment is RAII: the destructor detaches the sink if finish() was
// never called.  The tracer only observes — it never mutates machine
// state — and every hook it consumes lives on the reference path, which
// the machine takes exactly while the tracer is attached; a run without a
// tracer is bit-identical to one executed before this subsystem existed.
//
// Accounting scheme (see docs/TRACING.md for the full derivation)
// ---------------------------------------------------------------
// The context's own flush deltas (on_flush) are ground truth: busy plus
// the four stall classes, exactly as they enter the counter sets.  The
// tracer refines them with per-access/per-fetch hook data accumulated
// since the previous flush:
//   busy       -> kIssue + kSmtStretch          (exact subtractive split)
//   stall_mem  -> kL1Serve + kL2Serve + kBusQueue + kMemServe (residual)
//   stall_tlb  -> kDtlbWalk + kItlbWalk         (exact: integer penalties)
//   stall_fe   -> kTcRebuild
//   stall_br   -> kBranchFlush
// Each delta is attributed to the context's current parallel region; the
// fork/barrier flushes the xomp runtime performs for this sink (see
// flushes_at_fork) align the flush boundaries with region boundaries, so
// deltas never straddle one.
// finish() closes each context's whole-run stack against wall_cycles, so
// the per-context stacks sum to the wall *bitwise* (test-enforced).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/hooks.hpp"
#include "sim/params.hpp"
#include "sim/types.hpp"
#include "trace/report.hpp"
#include "trace/ring.hpp"
#include "trace/stack.hpp"

namespace paxsim::sim {
class Machine;
}

namespace paxsim::trace {

class Tracer final : public sim::TraceSink {
 public:
  /// Events retained per hardware context in the event modes.
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  /// Attaches to @p machine (Machine::set_trace_sink throws
  /// std::logic_error when it already carries a sink).  Attaching sends the
  /// machine down the reference path and turns on the xomp runtime's
  /// region-boundary flushes until the tracer detaches.
  Tracer(sim::Machine& machine, sim::TraceMode mode,
         std::size_t ring_capacity = kDefaultRingCapacity);
  ~Tracer() override;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Detaches and renders the report; @p wall_cycles is the run's wall
  /// time (every context stack is closed against it).  Idempotent on the
  /// attachment: safe to destroy afterwards.
  [[nodiscard]] TraceReport finish(double wall_cycles);

  [[nodiscard]] sim::TraceMode mode() const noexcept { return mode_; }

  // ---- sim::TraceSink -------------------------------------------------------
  /// Per-region stacks need a flush at every region boundary.
  [[nodiscard]] bool flushes_at_fork() const noexcept override { return true; }
  void on_access(const sim::HwContext& ctx, sim::Addr addr, bool is_store,
                 sim::Dep dep) override;
  void on_fetch(const sim::HwContext& ctx, sim::Addr code_addr,
                std::uint32_t uops) override;
  void on_loop(const sim::HwContext& ctx, sim::BlockId body, std::size_t begin,
               std::size_t end) override;
  void on_team(TeamEvent ev, const void* team,
               const sim::HwContext* const* members,
               std::size_t count) override;
  void on_runtime_range(sim::Addr base, std::size_t bytes) override;
  void on_sync(SyncOp op, const sim::HwContext& ctx, sim::Addr addr) override;
  void on_thread_moved(const sim::HwContext& from,
                       const sim::HwContext& to) override;
  void on_access_stall(const sim::HwContext& ctx, sim::MemLevel level,
                       double dtlb_walk, double stall, double queue_wait,
                       double total_wait) override;
  void on_fetch_stall(const sim::HwContext& ctx, double itlb_walk,
                      double decode) override;
  void on_flush(const sim::HwContext& ctx, double busy, double smt_stretch,
                double stall_mem, double stall_branch, double stall_tlb,
                double stall_fe) override;

 private:
  /// Everything the tracer tracks about one hardware context.
  struct PerCtx {
    // Refinement accumulators since the last flush (reset by on_flush).
    double l1_serve = 0;   ///< exposed-serve share of L1-hit stalls
    double l2_serve = 0;   ///< exposed-serve share of L2-hit stalls
    double l3_serve = 0;   ///< exposed-serve share of L3-hit stalls (3-level)
    double queue = 0;      ///< queueing share of all exposed stalls
    double dtlb = 0;       ///< DTLB page-walk cycles
    double itlb = 0;       ///< ITLB page-walk cycles (cross-check only)

    CpiStack stack;        ///< whole-run stack, closed at finish()
    double executed = 0;   ///< busy + stalls total across flushes

    sim::BlockId cur_body = 0;     ///< region key: loop body, 0 = serial
    std::size_t cur_region_idx = 0;  ///< cached index into regions_
    std::uint32_t cur_region = 0;  ///< dynamic region ordinal (0 = outside)
    const void* team = nullptr;    ///< team currently running here

    RingBuffer<TraceEvent> ring;
  };

  [[nodiscard]] PerCtx& state(const sim::HwContext& ctx) noexcept;
  /// Dense slot of @p ctx: the machine topology's flat() number.
  [[nodiscard]] int slot(const sim::HwContext& ctx) const noexcept;
  /// RegionStats slot for @p body, created on first use (0 pre-created).
  [[nodiscard]] std::size_t region_index(sim::BlockId body);
  void record(PerCtx& s, const TraceEvent& ev) {
    if (events_) s.ring.push(ev);
  }

  sim::Machine& machine_;
  sim::TraceMode mode_;
  bool attached_ = false;
  bool events_ = false;  ///< ring recording active (kEvents / kFull)

  std::vector<PerCtx> ctxs_;  ///< indexed by slot()
  std::vector<RegionStats> regions_;  ///< [0] is the serial bucket
  std::unordered_map<sim::BlockId, std::size_t> region_index_;
  std::unordered_map<const void*, std::vector<int>> team_members_;
  std::uint32_t next_region_ = 0;

  std::uint64_t team_forks_ = 0;
  std::uint64_t loop_dispatches_ = 0;
  std::uint64_t barriers_ = 0;
  std::uint64_t criticals_ = 0;
};

}  // namespace paxsim::trace
