// paxsim/sim/memsys.hpp
//
// Bandwidth model of the platform's memory path: one link per package (a
// front-side bus on the paper's machine) feeding the memory controller of
// each NUMA node (one shared north bridge + dual-channel DDR-2 on the
// paper's machine).  Machine builds both from its Topology: the link
// occupancies, and each node's controller occupancies and DRAM latency.
//
// Each resource is a *time-bucketed capacity server*: virtual time is cut
// into fixed windows, each window can serve `window` occupancy-cycles, and
// a request arriving at time t inside a window waits for whatever backlog
// the window has already accumulated beyond the elapsed portion.  Compared
// with a strict FIFO (`next_free`), this has two properties the simulator
// needs:
//
//   * capacity is enforced exactly — a saturated stream drains at the
//     calibrated bytes/cycle, reproducing the paper's bandwidth ceilings —
//     because within a window the k-th line cannot be ready before
//     window_start + k * occupancy;
//   * requesters far apart in *virtual time* do not contend — two
//     co-scheduled programs are interleaved at coarse granularity, and a
//     FIFO would bill the lagging program for reservations the leading one
//     made millions of cycles "in the future", a pure simulation artifact.
//
// Calibration (paper section 3, in Topology::paxville()):
//   one package streaming:  3.57 GB/s read, 1.77 GB/s write  (FSB-limited)
//   both packages:          4.43 GB/s read, 2.60 GB/s write  (MC-limited)
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/types.hpp"

namespace paxsim::sim {

/// Windowed busy-time tracker: reports the utilisation of a trailing
/// ~64k-cycle window, used by the prefetch gate ("prefetch only into spare
/// bandwidth").
class UtilizationWindow {
 public:
  void account(double at, double occ) noexcept {
    if (at - win_start_ >= kWindow) {
      prev_density_ = win_busy_ / std::max(at - win_start_, 1.0);
      win_start_ = at;
      win_busy_ = 0;
    }
    win_busy_ += occ;
  }

  [[nodiscard]] double utilization(double now) const noexcept {
    const double horizon = std::max(now, win_start_ + 1.0);
    const double span = horizon - win_start_;
    if (span >= kWindow) return std::min(1.0, win_busy_ / span);
    const double blended = win_busy_ + prev_density_ * (kWindow - span);
    return std::min(1.0, blended / kWindow);
  }

  void reset() noexcept { win_start_ = win_busy_ = prev_density_ = 0; }

 private:
  static constexpr double kWindow = 65536.0;
  double win_start_ = 0;
  double win_busy_ = 0;
  double prev_density_ = 0;
};

/// The time-bucketed capacity server described in the file header.
class BucketServer {
 public:
  /// Reserves @p occ occupancy-cycles at time @p t; returns the backlog
  /// delay the request waits before service begins.
  /// Virtual time starts at 0 and only moves forward, so @p t >= 0 and the
  /// windows a run touches are dense from 0.
  double reserve(double t, double occ) noexcept {
    const auto w = static_cast<std::size_t>(t / kWindowCycles);
    const double elapsed = t - static_cast<double>(w) * kWindowCycles;
    if (w >= buckets_.size()) buckets_.resize(w + 1, 0.0);
    double& used = buckets_[w];
    const double delay = std::max(0.0, used - elapsed);
    used += occ;
    return delay;
  }

  void reset() noexcept { buckets_.clear(); }

  /// Bucket width in cycles.  The per-window capacity reset briefly forgives
  /// backlog (roughly prefetch_depth lines per boundary), so the width is
  /// chosen large enough that the resulting bandwidth overshoot stays in the
  /// low single digits of a percent, while bucket growth stays negligible.
  static constexpr double kWindowCycles = 32768.0;

 private:
  std::vector<double> buckets_;  ///< occupancy-cycles used, per window
};

/// The memory controller of one node.  Every package homed there funnels
/// its misses through it; on a single-node machine its occupancy per line
/// sets the all-package aggregate bandwidth ceiling.
class MemoryController {
 public:
  MemoryController(double read_occupancy, double write_occupancy)
      : read_occ_(read_occupancy), write_occ_(write_occupancy) {}

  /// Reserves the controller for one line transfer arriving at @p t;
  /// returns the backlog delay.
  double reserve(double t, bool is_write) noexcept {
    const double occ = is_write ? write_occ_ : read_occ_;
    const double delay = server_.reserve(t, occ);
    window_.account(t, occ);
    return delay;
  }

  /// Recent utilisation, evaluated at @p now.
  [[nodiscard]] double utilization(double now) const noexcept {
    return window_.utilization(now);
  }

  void reset() noexcept {
    server_.reset();
    window_.reset();
  }

 private:
  double read_occ_;
  double write_occ_;
  BucketServer server_;
  UtilizationWindow window_;
};

/// One package's link to memory (its front-side bus on the paper's machine).
class FrontSideBus {
 public:
  /// A link with the given occupancies, bound to the package's home node:
  /// its controller @p mc and uncontended DRAM latency @p mem_latency.
  FrontSideBus(double read_occupancy, double write_occupancy,
               MemoryController* mc, double mem_latency)
      : read_occ_(read_occupancy),
        write_occ_(write_occupancy),
        mem_latency_(mem_latency),
        mc_(mc) {}

  /// Issues a demand or prefetch line read at time @p t.  Returns the
  /// load-to-use latency: bus backlog + controller backlog + DRAM latency.
  double read(double t) noexcept { return read_via(t, *mc_, mem_latency_); }

  /// Posts a writeback at time @p t.  Writebacks drain asynchronously and do
  /// not stall the core, but they consume bus and controller capacity and
  /// therefore delay later reads in the same windows.
  void write(double t) noexcept { return write_via(t, *mc_); }

  /// read() against an explicit target controller/latency — the same link
  /// capacity serves every node reachable from this package, but the far
  /// end (which controller queues the request, and the uncontended latency)
  /// depends on the line's home node.
  double read_via(double t, MemoryController& mc, double mem_latency) noexcept {
    const double bus_delay = server_.reserve(t, read_occ_);
    window_.account(t, read_occ_);
    const double mc_delay = mc.reserve(t + bus_delay, /*is_write=*/false);
    return bus_delay + mc_delay + mem_latency;
  }

  /// write() against an explicit target controller.
  void write_via(double t, MemoryController& mc) noexcept {
    const double bus_delay = server_.reserve(t, write_occ_);
    window_.account(t, write_occ_);
    mc.reserve(t + bus_delay, /*is_write=*/true);
  }

  /// Recent utilisation of this bus, evaluated at @p now.  Gates the
  /// hardware prefetcher.
  [[nodiscard]] double utilization(double now) const noexcept {
    return window_.utilization(now);
  }

  void reset() noexcept {
    server_.reset();
    window_.reset();
  }

 private:
  double read_occ_;
  double write_occ_;
  double mem_latency_;
  MemoryController* mc_;
  BucketServer server_;
  UtilizationWindow window_;
};

}  // namespace paxsim::sim
