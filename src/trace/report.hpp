// paxsim/trace/report.hpp
//
// The rendered outcome of one traced run: per-hardware-context CPI stall
// stacks (closed against the run's wall cycles), per-parallel-region
// aggregates, and the retained event stream.  Default-constructed means
// "nothing was traced" — the same convention check::CheckReport uses.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/params.hpp"
#include "sim/types.hpp"
#include "trace/stack.hpp"

namespace paxsim::trace {

/// One retained trace event (see Tracer for what gets recorded when).
/// Times are virtual cycles; instants have t1 == t0.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kFork,           ///< team fork (per member), region opens
    kLoop,           ///< work-sharing loop dispatched; a = body block id
    kBarrier,        ///< barrier release (per member)
    kJoin,           ///< team join (per member), region closes
    kCriticalEnter,  ///< critical/lock acquire; a = lock address
    kCriticalExit,   ///< critical/lock release; a = lock address
    kMemMiss,        ///< L2-miss access; a = address, t1-t0 = exposed stall
    kThreadMoved,    ///< thread migration onto this context
    kSample,         ///< accumulator flush: v0 busy, v1 mem, v2 other stalls
  };

  Kind kind{};
  std::uint8_t cpu = 0;      ///< context slot (the topology's flat())
  std::uint32_t region = 0;  ///< dynamic region ordinal (0 = outside)
  double t0 = 0;
  double t1 = 0;
  std::uint64_t a = 0;       ///< kind-specific payload (address, block id)
  double v0 = 0, v1 = 0, v2 = 0;  ///< kSample counter payload
};

/// Aggregate over every dynamic instance of one static parallel region
/// (keyed by the loop body's code block; body 0 collects serial execution
/// and everything outside work-sharing loops).
struct RegionStats {
  sim::BlockId body = 0;
  std::uint64_t instances = 0;   ///< dynamic dispatches of this loop
  std::uint64_t iterations = 0;  ///< total iterations across instances
  std::uint64_t accesses = 0;    ///< data accesses observed in the region
  std::uint64_t l1_misses = 0;   ///< of which missed the L1D
  std::uint64_t l2_misses = 0;   ///< of which also missed the L2
  std::uint64_t fetches = 0;     ///< front-end block fetches
  /// Executed-cycle stack summed over all contexts while they were in this
  /// region (kIdle stays 0 — idle is a per-context, whole-run residual).
  CpiStack stack;
};

/// One hardware context's whole-run stack, closed against wall_cycles.
struct ContextStack {
  sim::LogicalCpu cpu{};
  bool active = false;   ///< executed anything during the run
  CpiStack stack;        ///< sums exactly to the run's wall_cycles
  double executed = 0;   ///< the context's own executed-cycle total
};

/// Everything the Tracer distilled from one run.
struct TraceReport {
  sim::TraceMode mode = sim::TraceMode::kOff;
  double wall_cycles = 0;

  std::vector<ContextStack> contexts;  ///< one per context, in slot order
  std::vector<RegionStats> regions;    ///< serial (body 0) first, then by body

  /// Retained events, merged across contexts in t0 order (kEvents/kFull).
  std::vector<TraceEvent> events;
  std::uint64_t events_recorded = 0;  ///< everything ever pushed
  std::uint64_t events_dropped = 0;   ///< fell out of the rings

  // Run-level phase tallies (counted in every mode).
  std::uint64_t team_forks = 0;
  std::uint64_t loop_dispatches = 0;
  std::uint64_t barriers = 0;
  std::uint64_t criticals = 0;

  [[nodiscard]] bool traced() const noexcept {
    return mode != sim::TraceMode::kOff;
  }
};

}  // namespace paxsim::trace
