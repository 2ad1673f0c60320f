#include "check/checker.hpp"

#include "sim/core.hpp"

namespace paxsim::check {

Checker::Checker(sim::Machine& machine, sim::CheckMode mode)
    : machine_(&machine), mode_(mode) {
  if (mode_ == sim::CheckMode::kOff) return;
  if (race_mode()) detector_ = std::make_unique<RaceDetector>();
  if (invariant_mode()) auditor_ = std::make_unique<InvariantAuditor>();
  machine_->set_trace_sink(this);
  attached_ = true;
}

Checker::~Checker() {
  if (attached_) machine_->set_trace_sink(nullptr);
}

int Checker::tid_of(const sim::HwContext& ctx) {
  const auto it = tids_.find(&ctx);
  if (it != tids_.end()) return it->second;
  const int tid = next_tid_++;
  tids_.emplace(&ctx, tid);
  if (detector_) detector_->ensure_thread(tid);
  return tid;
}

void Checker::maybe_audit() {
  if (!auditor_ || events_since_audit_ < kAuditMinEvents) return;
  auditor_->audit(*machine_);
  events_since_audit_ = 0;
}

void Checker::on_access(const sim::HwContext& ctx, sim::Addr addr,
                        bool is_store, sim::Dep /*dep*/) {
  ++accesses_;
  ++events_since_audit_;
  if (auditor_) {
    auditor_->note_data_page(addr & ~(machine_->params().page_bytes - 1));
  }
  if (detector_ && !detector_->exempt(addr)) {
    detector_->on_access(tid_of(ctx), addr, is_store,
                         AccessRecord{-1, ctx.id(),
                                      machine_->topology().flat(ctx.id()),
                                      ctx.last_block(), ctx.now()});
  }
}

void Checker::on_fetch(const sim::HwContext& /*ctx*/, sim::Addr code_addr,
                       std::uint32_t /*uops*/) {
  ++fetches_;
  ++events_since_audit_;
  if (auditor_) {
    auditor_->note_code_page(code_addr & ~(machine_->params().page_bytes - 1));
  }
}

void Checker::on_team(TeamEvent /*ev*/, const void* /*team*/,
                      const sim::HwContext* const* members,
                      std::size_t count) {
  ++team_events_;
  if (detector_) {
    tid_scratch_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      tid_scratch_.push_back(tid_of(*members[i]));
    }
    // Create, fork, barrier and join all synchronise every member clock in
    // the runtime, so they carry the same all-to-all happens-before edge.
    detector_->on_barrier(tid_scratch_.data(), tid_scratch_.size());
  }
  maybe_audit();
}

void Checker::on_runtime_range(sim::Addr base, std::size_t bytes) {
  if (detector_) detector_->add_exempt_range(base, bytes);
}

void Checker::on_sync(SyncOp op, const sim::HwContext& ctx, sim::Addr addr) {
  ++syncs_;
  if (!detector_) return;
  const int tid = tid_of(ctx);
  switch (op) {
    case SyncOp::kAcquire: detector_->on_acquire(tid, addr); break;
    case SyncOp::kRelease: detector_->on_release(tid, addr); break;
    case SyncOp::kCombine: break;  // ordered by the join barrier already
  }
}

void Checker::on_thread_moved(const sim::HwContext& from,
                              const sim::HwContext& to) {
  const auto it = tids_.find(&from);
  if (it == tids_.end()) return;
  const int tid = it->second;
  tids_.erase(it);
  // The logical thread carries its identity (and so its happens-before
  // history) to the destination context.
  tids_[&to] = tid;
  if (detector_) detector_->on_thread_moved(tid);
}

CheckReport Checker::finish() {
  if (attached_) {
    if (auditor_) auditor_->audit(*machine_);
    machine_->set_trace_sink(nullptr);
    attached_ = false;
  }
  CheckReport r;
  r.mode = mode_;
  r.accesses = accesses_;
  r.fetches = fetches_;
  r.syncs = syncs_;
  r.team_events = team_events_;
  if (detector_) {
    r.races_total = detector_->races_total();
    r.racy_words = detector_->racy_words();
    r.races = detector_->races();
    r.line_conflicts = detector_->line_conflicts();
    r.conflicted_lines = detector_->conflicted_lines();
  }
  if (auditor_) {
    r.audits = auditor_->audits_run();
    r.violations_total = auditor_->violations_total();
    r.violations = auditor_->violations();
  }
  return r;
}

}  // namespace paxsim::check
