// paxsim/check/checker.hpp
//
// The Checker glues the analysis subsystem to a Machine: it implements
// sim::TraceSink, owns the race detector and/or the invariant auditor
// according to the CheckMode, and renders a CheckReport at the end of the
// run.
//
// Usage — the checker attaches to the machine a run uses, like the tracer
// and the profiler; `paxsim --check` does exactly this:
//
//   check::Checker checker(machine, mode);             // attaches
//   harness::RunResult r = harness::run_single(machine, ...);
//   check::CheckReport report = checker.finish();      // detaches
//
// The machine takes the reference path exactly while the checker is
// attached, so the analyses see every access, and checked runs stay
// bit-identical to unchecked ones.  Attachment is RAII: the destructor
// detaches the sink if finish() was never called, so an exception cannot
// leave a dangling sink (or a machine stuck off its fast path) in a pool.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "check/invariants.hpp"
#include "check/race_detector.hpp"
#include "check/report.hpp"
#include "sim/hooks.hpp"
#include "sim/machine.hpp"

namespace paxsim::check {

/// TraceSink implementation driving the analyses in virtual time.
class Checker final : public sim::TraceSink {
 public:
  /// Attaches to @p machine (Machine::set_trace_sink throws
  /// std::logic_error when it already carries a sink).  @p mode selects the
  /// analyses; kOff constructs a valid but inert checker that attaches
  /// nothing.
  Checker(sim::Machine& machine, sim::CheckMode mode);
  ~Checker() override;

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Final invariant audit, detach, and report assembly.  Idempotent.
  CheckReport finish();

  // ---- sim::TraceSink ------------------------------------------------------
  void on_access(const sim::HwContext& ctx, sim::Addr addr, bool is_store,
                 sim::Dep dep) override;
  void on_fetch(const sim::HwContext& ctx, sim::Addr code_addr,
                std::uint32_t uops) override;
  void on_team(TeamEvent ev, const void* team,
               const sim::HwContext* const* members,
               std::size_t count) override;
  void on_runtime_range(sim::Addr base, std::size_t bytes) override;
  void on_sync(SyncOp op, const sim::HwContext& ctx, sim::Addr addr) override;
  void on_thread_moved(const sim::HwContext& from,
                       const sim::HwContext& to) override;

  /// Audit throttle: a sync-boundary audit runs only after this many events
  /// since the previous one (plus the unconditional final audit).
  static constexpr std::uint64_t kAuditMinEvents = 4096;

 private:
  [[nodiscard]] bool race_mode() const noexcept {
    return mode_ == sim::CheckMode::kRace || mode_ == sim::CheckMode::kFull;
  }
  [[nodiscard]] bool invariant_mode() const noexcept {
    return mode_ == sim::CheckMode::kInvariants ||
           mode_ == sim::CheckMode::kFull;
  }
  /// Dense thread id of @p ctx, assigned on first sight.
  int tid_of(const sim::HwContext& ctx);
  void maybe_audit();

  sim::Machine* machine_;
  sim::CheckMode mode_;
  bool attached_ = false;

  std::unique_ptr<RaceDetector> detector_;    // race_mode() only
  std::unique_ptr<InvariantAuditor> auditor_; // invariant_mode() only

  std::unordered_map<const sim::HwContext*, int> tids_;
  int next_tid_ = 0;
  std::vector<int> tid_scratch_;  // member-tid buffer for on_team

  std::uint64_t accesses_ = 0;
  std::uint64_t fetches_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t team_events_ = 0;
  std::uint64_t events_since_audit_ = 0;
};

}  // namespace paxsim::check
