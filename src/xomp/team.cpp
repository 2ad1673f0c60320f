#include "xomp/team.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace paxsim::xomp {

namespace {

/// Throws std::invalid_argument unless @p cpu names a hardware context the
/// machine was built with.  Every run path binds its contexts through Team,
/// so this is where a configuration row meant for another topology (say a
/// Hyper-Threading row on a machine without SMT) is refused instead of
/// indexing past the machine's cores.
void require_hosted(const sim::Machine& machine, sim::LogicalCpu cpu) {
  const sim::Topology& t = machine.topology();
  if (cpu.chip < t.packages && cpu.core < t.cores_per_package &&
      cpu.context < t.smt_per_core) {
    return;
  }
  throw std::invalid_argument(
      "hardware context " + std::to_string(cpu.chip) + "." +
      std::to_string(cpu.core) + "." + std::to_string(cpu.context) +
      " is outside the machine (" + std::to_string(t.packages) + " chips x " +
      std::to_string(t.cores_per_package) + " cores x " +
      std::to_string(t.smt_per_core) + " contexts)");
}

}  // namespace

Team::Team(sim::Machine& machine, std::vector<sim::LogicalCpu> cpus,
           perf::CounterSet* counters, sim::AddressSpace& space)
    : machine_(&machine), counters_(counters), code_base_(space.code_base()) {
  if (cpus.empty()) {
    throw std::invalid_argument("a team needs at least one thread");
  }
  // Check every context before binding any, so a refused team leaves the
  // machine's contexts as it found them.
  for (const sim::LogicalCpu cpu : cpus) require_hosted(machine, cpu);
  ctxs_.reserve(cpus.size());
  for (const sim::LogicalCpu cpu : cpus) {
    sim::HwContext& ctx = machine.context(cpu);
    ctx.bind(counters, code_base_);
    ctxs_.push_back(&ctx);
  }
  // One cache line each so runtime structures do not falsely share.
  lock_addr_ = space.alloc(64, 64);
  cursor_addr_ = space.alloc(64, 64);
  barrier_addr_ = space.alloc(64, 64);
  reduction_addr_ = space.alloc(64 * ctxs_.size(), 64);
  if (sim::TraceSink* sink = machine_->trace_sink()) {
    // The runtime's own shared lines model atomic hardware operations;
    // declare them so the race detector exempts the plain load/store
    // sequences the runtime issues against them.
    sink->on_runtime_range(lock_addr_, 64);
    sink->on_runtime_range(cursor_addr_, 64);
    sink->on_runtime_range(barrier_addr_, 64);
    sink->on_runtime_range(reduction_addr_, 64 * ctxs_.size());
  }
  recompute_ties();
  notify_team(sim::TraceSink::TeamEvent::kCreate);
}

void Team::recompute_ties() {
  tie_of_.resize(ctxs_.size());
  for (std::size_t r = 0; r < ctxs_.size(); ++r) {
    tie_of_[r] = machine_->topology().flat(ctxs_[r]->id());
  }
}

void Team::build_static_chunks(
    std::size_t begin, std::size_t end, Schedule sched,
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>& chunks) {
  if (sched.kind != ScheduleKind::kStatic) return;
  const int nt = size();
  const std::size_t n = end - begin;
  chunks.resize(static_cast<std::size_t>(nt));
  if (sched.chunk == 0) {
    const std::size_t per =
        (n + static_cast<std::size_t>(nt) - 1) / static_cast<std::size_t>(nt);
    for (int r = 0; r < nt; ++r) {
      const std::size_t lo = begin + static_cast<std::size_t>(r) * per;
      const std::size_t hi = std::min(end, lo + per);
      if (lo < hi) chunks[static_cast<std::size_t>(r)].push_back({lo, hi});
    }
  } else {
    std::size_t lo = begin;
    int r = 0;
    while (lo < end) {
      const std::size_t hi = std::min(end, lo + sched.chunk);
      chunks[static_cast<std::size_t>(r)].push_back({lo, hi});
      lo = hi;
      r = (r + 1) % nt;
    }
  }
}

double Team::wall_time() const noexcept {
  double t = 0;
  for (const sim::HwContext* c : ctxs_) t = std::max(t, c->now());
  return t;
}

void Team::fork() {
  // Workers that idled through a serial section catch up to the master.
  const double t = wall_time();
  for (sim::HwContext* c : ctxs_) c->set_now(t);
  // Region-boundary flush for a sink that asks for it (the tracer), so its
  // per-region stacks never smear serial cycles into parallel regions.
  const sim::TraceSink* sink = machine_->trace_sink();
  if (sink != nullptr && sink->flushes_at_fork()) flush();
  notify_team(sim::TraceSink::TeamEvent::kFork);
}

void Team::join() {
  barrier();
  notify_team(sim::TraceSink::TeamEvent::kJoin);
}

void Team::barrier() {
  if (size() > 1) {
    // Centralized sense-reversing barrier: each thread RMWs the shared
    // counter line, which ping-pongs between the participating caches.
    for (sim::HwContext* c : ctxs_) {
      c->load(barrier_addr_, sim::Dep::kChained);
      c->store(barrier_addr_);
    }
  }
  const double t = wall_time();
  for (sim::HwContext* c : ctxs_) c->set_now(t);
  flush();
  notify_team(sim::TraceSink::TeamEvent::kBarrier);
}

void Team::flush() {
  for (sim::HwContext* c : ctxs_) c->flush_accumulators();
}

void Team::repin(int rank, sim::LogicalCpu to, double os_penalty_cycles) {
  require_hosted(*machine_, to);
  sim::HwContext& dst = machine_->context(to);
  sim::HwContext& src = *ctxs_[rank];
  if (&dst == &src) return;
  // Account the time the thread has accrued on the old context before it
  // leaves, so nothing is lost if the old context is never used again.
  src.flush_accumulators();
  dst.bind(counters_, code_base_);
  dst.set_now(std::max(dst.now(), src.now()));
  dst.os_overhead(os_penalty_cycles);
  if (sim::TraceSink* sink = machine_->trace_sink()) {
    sink->on_thread_moved(src, dst);
  }
  ctxs_[rank] = &dst;
  recompute_ties();
}

void Team::notify_team(sim::TraceSink::TeamEvent ev) {
  sim::TraceSink* sink = machine_->trace_sink();
  if (sink == nullptr) return;
  members_scratch_.assign(ctxs_.begin(), ctxs_.end());
  sink->on_team(ev, this, members_scratch_.data(), members_scratch_.size());
}

void Team::notify_loop(sim::BlockId body, std::size_t begin, std::size_t end) {
  if (sim::TraceSink* sink = machine_->trace_sink()) {
    sink->on_loop(*ctxs_[0], body, begin, end);
  }
}

void Team::sync_acquire(sim::HwContext& ctx, sim::Addr addr) {
  if (sim::TraceSink* sink = machine_->trace_sink()) {
    sink->on_sync(sim::TraceSink::SyncOp::kAcquire, ctx, addr);
  }
}

void Team::sync_release(sim::HwContext& ctx, sim::Addr addr) {
  if (sim::TraceSink* sink = machine_->trace_sink()) {
    sink->on_sync(sim::TraceSink::SyncOp::kRelease, ctx, addr);
  }
}

void Team::sync_combine(sim::HwContext& ctx, sim::Addr addr) {
  if (sim::TraceSink* sink = machine_->trace_sink()) {
    sink->on_sync(sim::TraceSink::SyncOp::kCombine, ctx, addr);
  }
}

}  // namespace paxsim::xomp
