#include "model/profile.hpp"

#include <algorithm>

namespace paxsim::model {

std::size_t thread_count_index(int threads) noexcept {
  std::size_t best = 0;
  for (std::size_t k = 0; k < kProfiledThreadCounts.size(); ++k) {
    if (kProfiledThreadCounts[k] <= threads) best = k;
  }
  return best;
}

Profiler::Profiler(sim::Machine& machine) : machine_(&machine) {
  machine_->set_trace_sink(this);
  attached_ = true;
}

Profiler::~Profiler() {
  if (attached_) machine_->set_trace_sink(nullptr);
}

KernelProfile Profiler::finish() {
  if (attached_) {
    machine_->set_trace_sink(nullptr);
    attached_ = false;
  }
  profile_.distinct_lines = line_stacks_[0].distinct();
  profile_.distinct_pages = page_stacks_[0].distinct();
  profile_.distinct_blocks = block_stack_.distinct();
  KernelProfile out = std::move(profile_);
  profile_ = KernelProfile{};
  return out;
}

bool Profiler::in_runtime_range(sim::Addr addr) const noexcept {
  for (const auto& [base, end] : runtime_ranges_) {
    if (addr >= base && addr < end) return true;
  }
  return false;
}

Profiler::LineShare& Profiler::share_of(std::uint64_t line) {
  const std::uint32_t pos = share_index_.find(line);
  if (pos != KeyIndex::kNone) return shares_[share_index_.value(pos)];
  share_index_.insert(line, static_cast<std::uint32_t>(shares_.size()));
  return shares_.emplace_back();
}

void Profiler::on_access(const sim::HwContext& /*ctx*/, sim::Addr addr,
                         bool is_store, sim::Dep dep) {
  if (is_store) {
    ++profile_.stores;
  } else {
    ++profile_.loads;
    if (dep == sim::Dep::kChained) ++profile_.chained_loads;
  }
  if (fork_depth_ > 0) ++profile_.par_accesses;
  const bool runtime = in_runtime_range(addr);
  if (runtime) ++profile_.runtime_accesses;

  const std::uint64_t line = addr >> 6;
  const std::uint64_t pageno = addr >> 12;

  // Per-tau virtual-owner line/page streams.
  std::uint64_t serial_line_distance = StackDistanceTracker::kCold;
  for (std::size_t k = 0; k < kProfiledThreadCounts.size(); ++k) {
    const std::uint8_t owner = k == 0 ? 0 : owner_[k];
    StackDistanceTracker& ls = line_stacks_[owner_base_[k] + owner];
    StackDistanceTracker& ps = page_stacks_[owner_base_[k] + owner];
    const std::uint64_t dl = ls.access(line);
    if (k == 0) serial_line_distance = dl;
    if (dl == StackDistanceTracker::kCold) {
      profile_.line[k].add_cold();
      if (is_store) profile_.store_line[k].add_cold();
    } else {
      profile_.line[k].add(dl);
      if (is_store) profile_.store_line[k].add(dl);
    }
    const std::uint64_t dp = ps.access(pageno);
    if (dp == StackDistanceTracker::kCold) {
      profile_.page[k].add_cold();
    } else {
      profile_.page[k].add(dp);
    }
  }

  // Stream detection on the serial line stream: a DRAM candidate whose
  // predecessor line is still hot is part of a sequential walk the stream
  // prefetcher covers.
  if (!runtime && (serial_line_distance == StackDistanceTracker::kCold ||
                   serial_line_distance >= kStreamFar)) {
    ++profile_.stream_candidates;
    if (line != 0) {
      const std::uint64_t dprev = line_stacks_[0].peek(line - 1);
      if (dprev != StackDistanceTracker::kCold && dprev < kStreamNear) {
        ++profile_.streamed;
      }
    }
  }

  // Cross-owner invalidations on written lines: the coherence-transfer
  // candidates.  Runtime-internal lines are excluded — their parallel-run
  // traffic (barrier, cursor) is modelled analytically from the loop
  // structure, not from the serial stream.
  if (!runtime) {
    LineShare& share = share_of(line);
    if (fork_depth_ == 0 && share.written) {
      const LineShare::Tau& t8 = share.tau[2];
      if (t8.last_writer != 0xFF && t8.last_writer != 0) {
        ++profile_.serial_gather;
        if ((t8.valid & 1u) == 0 || t8.seen[0] < t8.version) {
          ++profile_.serial_gather_lines;
        }
      }
    }
    for (std::size_t k = 1; k < kProfiledThreadCounts.size(); ++k) {
      LineShare::Tau& ts = share.tau[k - 1];
      const std::uint8_t owner = owner_[k];
      const auto bit = static_cast<std::uint8_t>(1u << owner);
      // A transfer needs the line cached by this owner (not a cold touch —
      // those are already in the reuse histograms) and written by another
      // owner since; read-read sharing never invalidates.
      if ((ts.valid & bit) != 0 && ts.seen[owner] < ts.version &&
          ts.last_writer != 0xFF && ts.last_writer != owner) {
        ++profile_.owner_transitions[k - 1]
                                    [static_cast<std::size_t>(ts.last_writer) *
                                         8 +
                                     owner];
      }
      if (is_store) {
        ++ts.version;
        ts.last_writer = owner;
      }
      ts.seen[owner] = ts.version;
      ts.valid |= bit;
    }
    if (is_store) share.written = true;
  }
}

void Profiler::on_fetch(const sim::HwContext& ctx, sim::Addr code_addr,
                        std::uint32_t uops) {
  ++profile_.fetches;
  profile_.uops += uops;
  if (fork_depth_ > 0) profile_.par_uops += uops;

  const sim::BlockId block = ctx.last_block();
  if (const std::uint64_t d = block_stack_.access(block);
      d == StackDistanceTracker::kCold) {
    profile_.block.add_cold();
  } else {
    profile_.block.add(d);
  }
  if (const std::uint64_t d = code_page_stack_.access(code_addr >> 12);
      d == StackDistanceTracker::kCold) {
    profile_.code_page.add_cold();
  } else {
    profile_.code_page.add(d);
  }

  // Advance the loop cursor: in a serial run the body block is fetched
  // exactly once per iteration, in iteration order, so the fetch count *is*
  // the iteration index — which determines the static-schedule virtual
  // owner under every candidate thread count.
  if (loop_.open && block == loop_.body && loop_.next < loop_.end) {
    const std::size_t iter = loop_.next++;
    ++profile_.iterations;
    const std::size_t n = loop_.end - loop_.begin;
    for (std::size_t k = 1; k < kProfiledThreadCounts.size(); ++k) {
      const auto tau = static_cast<std::size_t>(kProfiledThreadCounts[k]);
      const std::size_t per = (n + tau - 1) / tau;
      const std::size_t owner = per == 0 ? 0 : (iter - loop_.begin) / per;
      owner_[k] = static_cast<std::uint8_t>(std::min(owner, tau - 1));
    }
  }
}

void Profiler::on_loop(const sim::HwContext& /*ctx*/, sim::BlockId body,
                       std::size_t begin, std::size_t end) {
  loop_ = LoopCursor{true, body, begin, end, begin};
  ++profile_.loops;
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  for (std::size_t k = 0; k < kProfiledThreadCounts.size(); ++k) {
    const auto tau = static_cast<std::size_t>(kProfiledThreadCounts[k]);
    const std::size_t per = (n + tau - 1) / tau;
    // Contiguous static split: every thread but the last runs `per`
    // iterations; the straggler chunk is what the slowest thread waits on.
    profile_.chunk_max_iters[k] += static_cast<double>(per);
    profile_.chunk_mean_iters[k] +=
        static_cast<double>(n) / static_cast<double>(tau);
  }
}

void Profiler::on_team(TeamEvent ev, const void* /*team*/,
                       const sim::HwContext* const* /*members*/,
                       std::size_t /*count*/) {
  // Any team event delimits the current work-sharing loop.
  loop_.open = false;
  owner_.fill(0);
  switch (ev) {
    case TeamEvent::kFork:
      ++fork_depth_;
      break;
    case TeamEvent::kJoin:
      if (fork_depth_ > 0) --fork_depth_;
      break;
    case TeamEvent::kBarrier:
      ++profile_.barriers;
      break;
    case TeamEvent::kCreate:
      break;
  }
}

void Profiler::on_runtime_range(sim::Addr base, std::size_t bytes) {
  runtime_ranges_.emplace_back(base, base + bytes);
}

void Profiler::on_sync(SyncOp /*op*/, const sim::HwContext& /*ctx*/,
                       sim::Addr /*addr*/) {}

void Profiler::on_thread_moved(const sim::HwContext& /*from*/,
                               const sim::HwContext& /*to*/) {}

}  // namespace paxsim::model
