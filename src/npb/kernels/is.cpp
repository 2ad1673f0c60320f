// NPB IS — integer sort (bucketed counting sort / ranking).
//
// Each timed step ranks the key array: per-thread private histograms, a
// serial prefix scan, then a scatter pass computing each key's rank — the
// NPB-OMP IS structure.  The scatter is the interesting part for the
// machine: the rank lookup `count[key]` is a *data-dependent (chained)* load
// into a table under heavy contention, and the final ranked store is a
// random scatter — IS stresses the DTLB and produces scattered, prefetch-
// hostile bus traffic.
#include <cstdint>
#include <vector>

#include "npb/array.hpp"
#include "npb/kernel.hpp"
#include "npb/kernels_impl.hpp"
#include "npb/rng.hpp"

namespace paxsim::npb {
namespace {

struct IsSize {
  std::size_t n_keys;
  std::size_t max_key;  // power of two
  int steps;
};

IsSize is_size(ProblemClass c) {
  switch (c) {
    case ProblemClass::kClassS: return {1 << 14, 1 << 9, 2};
    case ProblemClass::kClassW: return {1 << 16, 1 << 10, 2};
    case ProblemClass::kClassA: return {1 << 17, 1 << 11, 3};
    case ProblemClass::kClassB: return {1 << 18, 1 << 11, 3};
  }
  return {1 << 14, 1 << 9, 2};
}

constexpr xomp::CodeBlock kBlkHist{1, 12};
constexpr xomp::CodeBlock kBlkScan{2, 8};
constexpr xomp::CodeBlock kBlkRank{3, 16};

class IsKernel final : public Kernel {
 public:
  [[nodiscard]] Benchmark id() const noexcept override { return Benchmark::kIS; }

  void setup(sim::AddressSpace& space, const ProblemConfig& cfg) override {
    const IsSize sz = is_size(cfg.cls);
    n_ = sz.n_keys;
    max_key_ = sz.max_key;
    steps_ = sz.steps;
    space_ = &space;
    keys_ = Array<std::uint32_t>(space, n_);
    ranks_ = Array<std::uint32_t>(space, n_);
    // Per-thread private histograms, here for teams of up to kSetupRanks;
    // step() moves wider teams to a bigger block.
    hist_ = Array<std::uint32_t>(space, max_key_ * kSetupRanks);
    count_ = Array<std::uint32_t>(space, max_key_);
    NpbRandom rng(cfg.seed);
    for (std::size_t i = 0; i < n_; ++i) {
      // NPB IS keys: average of four uniforms, scaled — a binomial-ish hump.
      const double r =
          (rng.next() + rng.next() + rng.next() + rng.next()) / 4.0;
      keys_.host(i) = static_cast<std::uint32_t>(r * (max_key_ - 1));
    }
  }

  [[nodiscard]] int total_steps() const noexcept override { return steps_; }

  [[nodiscard]] double result_signature() const override {
    // Order-sensitive digest of the ranking permutation.
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n_; ++i) {
      h = (h ^ ranks_.host(i)) * 1099511628211ull;
    }
    return static_cast<double>(h >> 11);
  }

  void step(xomp::Team& team, int /*s*/) override {
    const auto nt = static_cast<std::size_t>(team.size());
    // Allocated past every other array, so teams that fit the setup-time
    // block keep its simulated addresses.  Phase 1 zeroes the histograms.
    if (max_key_ * nt > hist_.size()) {
      hist_ = Array<std::uint32_t>(*space_, max_key_ * nt);
    }
    // 1. Zero private histograms.
    team.parallel_for(0, max_key_ * nt, xomp::Schedule::static_default(),
                      kBlkScan, [&](std::size_t i, sim::HwContext& ctx, int) {
                        hist_.put(ctx, i, 0);
                      });
    // 2. Count keys into private histograms.  Phase 4 must see the same
    //    partition, so a schedule override changes only the chunk here.
    team.parallel_for(0, n_, xomp::Schedule::static_partition(), kBlkHist,
                      [&](std::size_t i, sim::HwContext& ctx, int rank) {
                        const std::uint32_t k = keys_.get(ctx, i);
                        const std::size_t h =
                            static_cast<std::size_t>(rank) * max_key_ + k;
                        // Histogram update: address depends on the key.
                        hist_.add(ctx, h, 1, sim::Dep::kChained);
                      });
    // 3. Merge + exclusive prefix scan (master).
    team.serial_for(0, max_key_, kBlkScan, [&](std::size_t k, sim::HwContext& ctx) {
      std::uint32_t s = 0;
      for (std::size_t t = 0; t < nt; ++t) {
        ctx.load(hist_.addr(t * max_key_ + k));
        s += hist_.host(t * max_key_ + k);
      }
      ctx.alu(static_cast<std::uint32_t>(nt));
      count_.put(ctx, k, s);
    });
    team.serial([&](sim::HwContext& ctx) {
      std::uint32_t acc = 0;
      for (std::size_t k = 0; k < max_key_; ++k) {
        ctx.load(count_.addr(k));
        ctx.alu(2);
        const std::uint32_t c = count_.host(k);
        ctx.store(count_.addr(k));
        count_.host(k) = acc;
        acc += c;
      }
    });
    // 3b. Turn the private histograms into per-thread scatter bases:
    //     base[t][k] = count[k] + sum of hist[s][k] over threads s < t.
    team.parallel_for(0, max_key_, xomp::Schedule::static_default(), kBlkScan,
                      [&](std::size_t k, sim::HwContext& ctx, int) {
                        std::uint32_t acc;
                        ctx.load(count_.addr(k));
                        acc = count_.host(k);
                        for (std::size_t t = 0; t < nt; ++t) {
                          const std::size_t h = t * max_key_ + k;
                          ctx.load(hist_.addr(h));
                          ctx.alu(1);
                          const std::uint32_t c = hist_.host(h);
                          ctx.store(hist_.addr(h));
                          hist_.host(h) = acc;
                          acc += c;
                        }
                      });
    // 4. Rank in parallel: each thread ranks the same slice of keys it
    //    counted in phase 2 (identical static partition, whatever the
    //    override), bumping its own per-key base — the NPB-OMP IS scatter.
    team.parallel_for(0, n_, xomp::Schedule::static_partition(), kBlkRank,
                      [&](std::size_t i, sim::HwContext& ctx, int rank) {
                        const std::uint32_t k = keys_.get(ctx, i);
                        const std::size_t h =
                            static_cast<std::size_t>(rank) * max_key_ + k;
                        // Base lookup and bump: address depends on the key.
                        ctx.load(hist_.addr(h), sim::Dep::kChained);
                        ctx.alu(2);
                        const std::uint32_t pos = hist_.host(h)++;
                        ctx.store(hist_.addr(h));
                        ranks_.put(ctx, i, pos);  // random scatter store
                      });
  }

  [[nodiscard]] bool verify() const override {
    // ranks_ must be a permutation of [0, n) and honour key order:
    // key[i] < key[j]  =>  rank[i] < rank[j].
    std::vector<std::uint8_t> seen(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t r = ranks_.host(i);
      if (r >= n_ || seen[r]) return false;
      seen[r] = 1;
    }
    // Spot-check ordering via the inverse permutation.
    std::vector<std::uint32_t> by_rank(n_);
    for (std::size_t i = 0; i < n_; ++i) by_rank[ranks_.host(i)] = keys_.host(i);
    for (std::size_t r = 1; r < n_; ++r) {
      if (by_rank[r - 1] > by_rank[r]) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t footprint_bytes() const noexcept override {
    return keys_.footprint_bytes() + ranks_.footprint_bytes() +
           hist_.footprint_bytes() + count_.footprint_bytes();
  }

 private:
  static constexpr std::size_t kSetupRanks = 8;

  sim::AddressSpace* space_ = nullptr;  ///< setup()'s space, for wide teams
  std::size_t n_ = 0;
  std::size_t max_key_ = 0;
  int steps_ = 0;
  Array<std::uint32_t> keys_, ranks_, hist_, count_;
};

}  // namespace

namespace detail {
std::unique_ptr<Kernel> make_is() { return std::make_unique<IsKernel>(); }
}  // namespace detail

}  // namespace paxsim::npb
