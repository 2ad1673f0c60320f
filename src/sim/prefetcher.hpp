// paxsim/sim/prefetcher.hpp
//
// Per-core hardware stream prefetcher.  Watches the L2 demand-miss stream;
// after `trigger` consecutive constant-stride misses within a stream it
// speculatively reads the next `depth` lines into the L2 — but only while
// the package bus has spare bandwidth.  Prefetch reads are counted as their
// own FSB transaction class, which is exactly the "% prefetching bus
// accesses" panel of Figures 2 and 4.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/params.hpp"
#include "sim/types.hpp"

namespace paxsim::sim {

/// A prefetch the engine wants issued (line-aligned address).
struct PrefetchRequest {
  Addr line_addr = 0;
};

/// Stride-stream detector.  Pure policy: the Core performs the actual bus
/// reads and fills so that timing and counters stay in one place.
class StreamPrefetcher {
 public:
  explicit StreamPrefetcher(const MachineParams& p)
      : streams_(static_cast<std::size_t>(p.prefetch_streams)),
        depth_(p.prefetch_depth),
        trigger_(p.prefetch_trigger),
        line_bytes_(static_cast<std::int64_t>(
            p.topology.levels[1].geometry.line_bytes)) {}

  /// Feeds one L2 demand miss; appends any prefetch requests to @p out.
  void on_demand_miss(Addr line_addr, std::vector<PrefetchRequest>& out);

  void reset() noexcept {
    for (auto& s : streams_) s = Stream{};
    tick_ = 0;
  }

 private:
  struct Stream {
    bool valid = false;
    Addr last_line = 0;
    std::int64_t stride = 0;  // bytes, multiple of line size
    int hits = 0;
    std::uint64_t last_use = 0;
  };

  std::vector<Stream> streams_;
  int depth_;
  int trigger_;
  std::int64_t line_bytes_;
  std::uint64_t tick_ = 0;
};

}  // namespace paxsim::sim
