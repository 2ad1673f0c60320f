#include "lmb/lmbench.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "perf/counters.hpp"

namespace paxsim::lmb {
namespace {

/// Builds a pointer-chase visiting order over @p n_lines: page-sequential
/// blocks with a shuffled interior, which defeats the stream prefetcher
/// (no constant stride) while keeping TLB misses rare — the lat_mem_rd
/// access discipline.
std::vector<std::size_t> chase_order(std::size_t n_lines, std::uint64_t seed) {
  std::vector<std::size_t> order(n_lines);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  const std::size_t block = 256;  // lines per shuffle block (4 pages)
  for (std::size_t lo = 0; lo < n_lines; lo += block) {
    const std::size_t hi = std::min(n_lines, lo + block);
    std::shuffle(order.begin() + static_cast<std::ptrdiff_t>(lo),
                 order.begin() + static_cast<std::ptrdiff_t>(hi), rng);
  }
  return order;
}

}  // namespace

std::vector<std::size_t> default_ladder_sizes(std::size_t min_bytes,
                                              std::size_t max_bytes) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = min_bytes; s <= max_bytes; s *= 2) sizes.push_back(s);
  return sizes;
}

std::vector<LatencyPoint> latency_ladder(const sim::MachineParams& params,
                                         const std::vector<std::size_t>& sizes,
                                         std::size_t chases_per_size) {
  std::vector<LatencyPoint> out;
  out.reserve(sizes.size());
  for (const std::size_t ws : sizes) {
    sim::Machine machine(params);
    sim::AddressSpace space(0);
    perf::CounterSet counters;
    sim::HwContext& ctx = machine.context({0, 0, 0});
    ctx.bind(&counters, space.code_base());

    const std::size_t line = params.topology.levels[0].geometry.line_bytes;
    const std::size_t n_lines = std::max<std::size_t>(1, ws / line);
    const sim::Addr base = space.alloc(n_lines * line, params.page_bytes);
    const std::vector<std::size_t> order = chase_order(n_lines, 42);

    // Warm-up lap: populate caches and TLB for the resident regime.
    for (const std::size_t l : order) {
      ctx.load(base + static_cast<sim::Addr>(l) * line, sim::Dep::kChained);
    }
    const double t0 = ctx.now();
    std::size_t done = 0;
    while (done < chases_per_size) {
      for (std::size_t i = 0; i < order.size() && done < chases_per_size;
           ++i, ++done) {
        ctx.load(base + static_cast<sim::Addr>(order[i]) * line,
                 sim::Dep::kChained);
      }
    }
    const double cycles = ctx.now() - t0;
    out.push_back(LatencyPoint{
        ws, cycles / static_cast<double>(chases_per_size) / params.clock_ghz});
  }
  return out;
}

BandwidthResult stream_bandwidth(const sim::MachineParams& params,
                                 bool both_chips,
                                 std::size_t bytes_per_thread) {
  const std::size_t line = params.topology.levels[0].geometry.line_bytes;
  const std::size_t lines_per_thread = bytes_per_thread / line;

  auto run = [&](bool writes) {
    sim::Machine machine(params);
    sim::AddressSpace space(0);
    perf::CounterSet counters;
    // Two streaming threads: both cores of chip 0, or core 0 of each chip.
    std::vector<sim::LogicalCpu> cpus =
        both_chips ? std::vector<sim::LogicalCpu>{{0, 0, 0}, {1, 0, 0}}
                   : std::vector<sim::LogicalCpu>{{0, 0, 0}, {0, 1, 0}};
    std::vector<sim::HwContext*> ctxs;
    std::vector<sim::Addr> bases;
    for (const auto cpu : cpus) {
      sim::HwContext& ctx = machine.context(cpu);
      ctx.bind(&counters, space.code_base());
      ctxs.push_back(&ctx);
      bases.push_back(space.alloc(bytes_per_thread, params.page_bytes));
    }
    // Two passes over the buffer, interleaved in virtual time a burst of
    // lines at a time; only the second (steady-state) pass is measured —
    // bw_mem's warm-up discipline, which matters for writes because a cold
    // cache absorbs the first working set without writebacks.
    auto one_pass = [&] {
      std::vector<std::size_t> pos(ctxs.size(), 0);
      const std::size_t burst = 16;
      while (true) {
        // Advance the thread furthest behind.
        std::size_t pick = 0;
        double best = 1e300;
        bool work = false;
        for (std::size_t t = 0; t < ctxs.size(); ++t) {
          if (pos[t] >= lines_per_thread) continue;
          work = true;
          if (ctxs[t]->now() < best) {
            best = ctxs[t]->now();
            pick = t;
          }
        }
        if (!work) break;
        sim::HwContext& ctx = *ctxs[pick];
        for (std::size_t b = 0; b < burst && pos[pick] < lines_per_thread;
             ++b, ++pos[pick]) {
          const sim::Addr a =
              bases[pick] + static_cast<sim::Addr>(pos[pick]) * line;
          if (writes) {
            ctx.store(a);
          } else {
            ctx.load(a);
          }
        }
      }
    };
    auto wall = [&] {
      double w = 0;
      for (const sim::HwContext* c : ctxs) w = std::max(w, c->now());
      return w;
    };
    one_pass();  // warm-up
    const double t0 = wall();
    one_pass();  // measured
    const double cycles = wall() - t0;
    const double bytes =
        static_cast<double>(lines_per_thread * line * ctxs.size());
    const double seconds = cycles / (params.clock_ghz * 1e9);
    return bytes / seconds / 1e9;
  };

  BandwidthResult r;
  r.read_gbps = run(false);
  r.write_gbps = run(true);
  return r;
}

}  // namespace paxsim::lmb
