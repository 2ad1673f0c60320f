// paxsim/trace/tracer.cpp
#include "trace/tracer.hpp"

#include <algorithm>

#include "sim/core.hpp"
#include "sim/machine.hpp"

namespace paxsim::trace {

Tracer::Tracer(sim::Machine& machine, sim::TraceMode mode,
               std::size_t ring_capacity)
    : machine_(machine),
      mode_(mode),
      events_(mode == sim::TraceMode::kEvents ||
              mode == sim::TraceMode::kFull) {
  // One dense slot per hardware context of the machine's topology (see
  // slot()).
  const std::size_t slots =
      static_cast<std::size_t>(machine.topology().total_contexts());
  ctxs_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    PerCtx s;
    s.ring = RingBuffer<TraceEvent>(events_ ? ring_capacity : 0);
    ctxs_.push_back(std::move(s));
  }
  // The serial bucket exists even for a run that never forks.
  regions_.push_back(RegionStats{});
  region_index_.emplace(sim::BlockId{0}, 0);
  machine_.set_trace_sink(this);
  attached_ = true;
}

Tracer::~Tracer() {
  if (attached_) machine_.set_trace_sink(nullptr);
}

int Tracer::slot(const sim::HwContext& ctx) const noexcept {
  return machine_.topology().flat(ctx.id());
}

Tracer::PerCtx& Tracer::state(const sim::HwContext& ctx) noexcept {
  return ctxs_[static_cast<std::size_t>(slot(ctx))];
}

std::size_t Tracer::region_index(sim::BlockId body) {
  const auto [it, inserted] = region_index_.emplace(body, regions_.size());
  if (inserted) {
    RegionStats r;
    r.body = body;
    regions_.push_back(r);
  }
  return it->second;
}

void Tracer::on_access(const sim::HwContext& ctx, sim::Addr /*addr*/,
                       bool /*is_store*/, sim::Dep /*dep*/) {
  ++regions_[state(ctx).cur_region_idx].accesses;
}

void Tracer::on_fetch(const sim::HwContext& ctx, sim::Addr /*code_addr*/,
                      std::uint32_t /*uops*/) {
  ++regions_[state(ctx).cur_region_idx].fetches;
}

void Tracer::on_loop(const sim::HwContext& ctx, sim::BlockId body,
                     std::size_t begin, std::size_t end) {
  ++loop_dispatches_;
  const std::size_t idx = region_index(body);
  RegionStats& r = regions_[idx];
  ++r.instances;
  r.iterations += static_cast<std::uint64_t>(end - begin);

  // The dispatching context speaks for the whole team: every member runs
  // this loop body until the closing barrier, so each one's subsequent
  // flush delta belongs to it.
  PerCtx& lead = state(ctx);
  const auto members = team_members_.find(lead.team);
  if (members != team_members_.end()) {
    for (const int flat : members->second) {
      PerCtx& s = ctxs_[static_cast<std::size_t>(flat)];
      s.cur_body = body;
      s.cur_region_idx = idx;
    }
  } else {  // no fork observed (serial_for): just this context
    lead.cur_body = body;
    lead.cur_region_idx = idx;
  }

  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kLoop;
  ev.cpu = static_cast<std::uint8_t>(slot(ctx));
  ev.region = lead.cur_region;
  ev.t0 = ev.t1 = ctx.now();
  ev.a = body;
  record(lead, ev);
}

void Tracer::on_team(TeamEvent ev, const void* team,
                     const sim::HwContext* const* members, std::size_t count) {
  switch (ev) {
    case TeamEvent::kCreate:
      return;
    case TeamEvent::kFork: {
      ++team_forks_;
      const std::uint32_t region = ++next_region_;
      std::vector<int>& flats = team_members_[team];
      flats.clear();
      for (std::size_t i = 0; i < count; ++i) {
        PerCtx& s = state(*members[i]);
        flats.push_back(slot(*members[i]));
        s.team = team;
        s.cur_region = region;
        s.cur_body = 0;  // serial until the team dispatches a loop
        s.cur_region_idx = 0;
        TraceEvent e;
        e.kind = TraceEvent::Kind::kFork;
        e.cpu = static_cast<std::uint8_t>(slot(*members[i]));
        e.region = region;
        e.t0 = e.t1 = members[i]->now();
        record(s, e);
      }
      return;
    }
    case TeamEvent::kBarrier: {
      ++barriers_;
      // Membership can have shifted (scheduler repin); refresh it so the
      // next on_loop reaches the contexts actually in the team.
      std::vector<int>& flats = team_members_[team];
      flats.clear();
      for (std::size_t i = 0; i < count; ++i) {
        PerCtx& s = state(*members[i]);
        flats.push_back(slot(*members[i]));
        s.team = team;
        TraceEvent e;
        e.kind = TraceEvent::Kind::kBarrier;
        e.cpu = static_cast<std::uint8_t>(slot(*members[i]));
        e.region = s.cur_region;
        e.t0 = e.t1 = members[i]->now();
        record(s, e);
      }
      return;
    }
    case TeamEvent::kJoin: {
      for (std::size_t i = 0; i < count; ++i) {
        PerCtx& s = state(*members[i]);
        TraceEvent e;
        e.kind = TraceEvent::Kind::kJoin;
        e.cpu = static_cast<std::uint8_t>(slot(*members[i]));
        e.region = s.cur_region;
        e.t0 = e.t1 = members[i]->now();
        record(s, e);
        s.cur_body = 0;
        s.cur_region_idx = 0;
        s.cur_region = 0;
        s.team = nullptr;
      }
      team_members_.erase(team);
      return;
    }
  }
}

void Tracer::on_runtime_range(sim::Addr /*base*/, std::size_t /*bytes*/) {}

void Tracer::on_sync(SyncOp op, const sim::HwContext& ctx, sim::Addr addr) {
  if (op == SyncOp::kCombine) return;
  PerCtx& s = state(ctx);
  if (op == SyncOp::kAcquire) ++criticals_;
  TraceEvent e;
  e.kind = op == SyncOp::kAcquire ? TraceEvent::Kind::kCriticalEnter
                                  : TraceEvent::Kind::kCriticalExit;
  e.cpu = static_cast<std::uint8_t>(slot(ctx));
  e.region = s.cur_region;
  e.t0 = e.t1 = ctx.now();
  e.a = addr;
  record(s, e);
}

void Tracer::on_thread_moved(const sim::HwContext& from,
                             const sim::HwContext& to) {
  PerCtx& sf = state(from);
  PerCtx& st = state(to);
  // The logical thread carries its region with it.
  st.cur_body = sf.cur_body;
  st.cur_region_idx = sf.cur_region_idx;
  st.cur_region = sf.cur_region;
  st.team = sf.team;
  sf.cur_body = 0;
  sf.cur_region_idx = 0;
  sf.cur_region = 0;
  sf.team = nullptr;
  TraceEvent e;
  e.kind = TraceEvent::Kind::kThreadMoved;
  e.cpu = static_cast<std::uint8_t>(slot(to));
  e.region = st.cur_region;
  e.t0 = e.t1 = to.now();
  e.a = static_cast<std::uint64_t>(slot(from));
  record(st, e);
}

void Tracer::on_access_stall(const sim::HwContext& ctx, sim::MemLevel level,
                             double dtlb_walk, double stall, double queue_wait,
                             double total_wait) {
  PerCtx& s = state(ctx);
  RegionStats& r = regions_[s.cur_region_idx];
  if (level != sim::MemLevel::kL1) ++r.l1_misses;
  if (level == sim::MemLevel::kMem || level == sim::MemLevel::kL3) {
    ++r.l2_misses;  // an L3-served access missed the L2 on its way there
  }

  s.dtlb += dtlb_walk;
  // Split the exposed stall into its queueing share and its serve share by
  // the access's latency composition; DRAM serve time is left for the
  // flush-time residual so the four mem buckets always re-add to the
  // context's stall_mem class.
  const double queue_part =
      total_wait > 0 ? stall * (queue_wait / total_wait) : 0;
  const double serve_part = stall - queue_part;
  s.queue += queue_part;
  switch (level) {
    case sim::MemLevel::kL1: s.l1_serve += serve_part; break;
    case sim::MemLevel::kL2: s.l2_serve += serve_part; break;
    case sim::MemLevel::kL3: s.l3_serve += serve_part; break;
    case sim::MemLevel::kMem: break;  // kMemServe residual at flush
  }

  if (events_ && level == sim::MemLevel::kMem) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kMemMiss;
    e.cpu = static_cast<std::uint8_t>(slot(ctx));
    e.region = s.cur_region;
    e.t0 = ctx.now();  // hook fires before the stall advances the clock
    e.t1 = ctx.now() + stall;
    record(s, e);
  }
}

void Tracer::on_fetch_stall(const sim::HwContext& ctx, double itlb_walk,
                            double /*decode*/) {
  state(ctx).itlb += itlb_walk;
}

void Tracer::on_flush(const sim::HwContext& ctx, double busy,
                      double smt_stretch, double stall_mem,
                      double stall_branch, double stall_tlb, double stall_fe) {
  PerCtx& s = state(ctx);
  CpiStack d;
  d[StackCat::kIssue] = busy - smt_stretch;
  d[StackCat::kSmtStretch] = smt_stretch;
  d[StackCat::kL1Serve] = s.l1_serve;
  d[StackCat::kL2Serve] = s.l2_serve;
  d[StackCat::kL3Serve] = s.l3_serve;
  d[StackCat::kBusQueue] = s.queue;
  d[StackCat::kMemServe] =
      stall_mem - s.l1_serve - s.l2_serve - s.l3_serve - s.queue;
  d[StackCat::kDtlbWalk] = s.dtlb;
  // Integer-valued walk penalties make this subtraction exact, and it keeps
  // the TLB split additive even if an itlb accumulation was ever missed
  // (s.itlb is kept as a cross-check, not a source of truth).
  d[StackCat::kItlbWalk] = stall_tlb - s.dtlb;
  d[StackCat::kTcRebuild] = stall_fe;
  d[StackCat::kBranchFlush] = stall_branch;
  s.stack.add(d);
  regions_[s.cur_region_idx].stack.add(d);
  s.executed += busy + stall_mem + stall_branch + stall_tlb + stall_fe;
  s.l1_serve = s.l2_serve = s.l3_serve = s.queue = s.dtlb = s.itlb = 0;

  if (events_) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kSample;
    e.cpu = static_cast<std::uint8_t>(slot(ctx));
    e.region = s.cur_region;
    e.t0 = e.t1 = ctx.now();
    e.v0 = busy;
    e.v1 = stall_mem;
    e.v2 = stall_branch + stall_tlb + stall_fe;
    record(s, e);
  }
}

TraceReport Tracer::finish(double wall_cycles) {
  if (attached_) {
    machine_.set_trace_sink(nullptr);
    attached_ = false;
  }

  TraceReport rep;
  rep.mode = mode_;
  rep.wall_cycles = wall_cycles;

  // Slot order: rep.contexts[i] is the context the topology numbers i.
  for (std::size_t i = 0; i < ctxs_.size(); ++i) {
    const PerCtx& s = ctxs_[i];
    ContextStack cs{machine_.topology().unflat(static_cast<int>(i)),
                    s.executed > 0, s.stack, s.executed};
    cs.stack.close(wall_cycles);
    rep.contexts.push_back(cs);
  }

  rep.regions = regions_;
  std::sort(rep.regions.begin() + 1, rep.regions.end(),
            [](const RegionStats& a, const RegionStats& b) {
              return a.body < b.body;
            });

  for (const PerCtx& s : ctxs_) {
    rep.events_recorded += s.ring.total();
    rep.events_dropped += s.ring.dropped();
    for (std::size_t i = 0; i < s.ring.size(); ++i) {
      rep.events.push_back(s.ring[i]);
    }
  }
  std::stable_sort(rep.events.begin(), rep.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t0 != b.t0) return a.t0 < b.t0;
                     return a.cpu < b.cpu;
                   });

  rep.team_forks = team_forks_;
  rep.loop_dispatches = loop_dispatches_;
  rep.barriers = barriers_;
  rep.criticals = criticals_;
  return rep;
}

}  // namespace paxsim::trace
