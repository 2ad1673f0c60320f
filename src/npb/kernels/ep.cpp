// NPB EP — embarrassingly parallel.
//
// Generates pairs of uniform deviates with the NPB randlc generator,
// transforms accepted pairs to Gaussian deviates (Marsaglia polar method)
// and tallies them into ten square annuli.  Almost no memory traffic, a
// data-dependent acceptance branch (~78.5% taken), and heavy FP arithmetic:
// EP is the pure issue-rate yardstick — under Hyper-Threading it gains only
// the modest execution-unit-sharing benefit and pays no cache penalty.
//
// Verification is exact: the same generator is replayed uninstrumented and
// the annulus counts and Gaussian sums must match bit-for-bit.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "npb/array.hpp"
#include "npb/kernel.hpp"
#include "npb/kernels_impl.hpp"
#include "npb/rng.hpp"

namespace paxsim::npb {
namespace {

struct EpSize {
  std::uint64_t pairs;  // total pairs over all steps
  int steps;
};

EpSize ep_size(ProblemClass c) {
  switch (c) {
    case ProblemClass::kClassS: return {1ull << 15, 2};
    case ProblemClass::kClassW: return {1ull << 16, 2};
    case ProblemClass::kClassA: return {1ull << 17, 3};
    case ProblemClass::kClassB: return {1ull << 18, 3};
  }
  return {1ull << 15, 2};
}

constexpr xomp::CodeBlock kBlkBatch{1, 40};
constexpr std::uint32_t kAcceptBranchSite = 201;
constexpr std::size_t kBatch = 256;  // pairs per loop iteration

class EpKernel final : public Kernel {
 public:
  [[nodiscard]] Benchmark id() const noexcept override { return Benchmark::kEP; }

  void setup(sim::AddressSpace& space, const ProblemConfig& cfg) override {
    const EpSize sz = ep_size(cfg.cls);
    pairs_ = sz.pairs;
    steps_ = sz.steps;
    seed_ = cfg.seed;
    q_ = Array<double>(space, 10);  // annulus tallies
    for (std::size_t i = 0; i < 10; ++i) q_.host(i) = 0.0;
    sx_ = sy_ = 0.0;
  }

  [[nodiscard]] int total_steps() const noexcept override { return steps_; }

  [[nodiscard]] double result_signature() const override { return sx_ + sy_; }

  void step(xomp::Team& team, int s) override {
    const std::size_t batches = batches_per_step();
    const std::uint64_t per_step = static_cast<std::uint64_t>(batches) * kBatch;
    const std::uint64_t first = per_step * static_cast<std::uint64_t>(s);

    if (sy_partial_.size() < static_cast<std::size_t>(team.size())) {
      sy_partial_.resize(static_cast<std::size_t>(team.size()), 0.0);
    }
    std::vector<double> qloc(10 * static_cast<std::size_t>(team.size()), 0.0);
    const double sx = team.parallel_reduce(
        0, batches, xomp::Schedule::static_default(), kBlkBatch,
        [&](std::size_t b, sim::HwContext& ctx, int rank) {
          NpbRandom rng(seed_);
          rng.skip((first + b * kBatch) * 2);
          double sx_part = 0;
          for (std::size_t p = 0; p < kBatch; ++p) {
            const double x = 2.0 * rng.next() - 1.0;
            const double y = 2.0 * rng.next() - 1.0;
            ctx.alu(12);  // two randlc steps + scaling + t = x^2+y^2
            const double t = x * x + y * y;
            const bool accept = t <= 1.0;
            ctx.branch(kAcceptBranchSite, accept);
            if (!accept) continue;
            ctx.alu(18);  // log, sqrt, two products, annulus select
            const double f = std::sqrt(-2.0 * std::log(t) / t);
            const double gx = x * f;
            const double gy = y * f;
            const auto annulus = static_cast<std::size_t>(
                std::max(std::abs(gx), std::abs(gy)));
            if (annulus < 10) {
              qloc[static_cast<std::size_t>(rank) * 10 + annulus] += 1.0;
            }
            sx_part += gx;
            sy_partial_[static_cast<std::size_t>(rank)] += gy;
          }
          return sx_part;
        });
    // Merge annulus tallies (master).
    team.serial([&](sim::HwContext& ctx) {
      for (std::size_t a = 0; a < 10; ++a) {
        double s2 = 0;
        for (int r = 0; r < team.size(); ++r) {
          s2 += qloc[static_cast<std::size_t>(r) * 10 + a];
        }
        ctx.alu(static_cast<std::uint32_t>(team.size()));
        q_.add(ctx, a, s2);
      }
    });
    sx_ += sx;
    for (double& v : sy_partial_) {
      sy_ += v;
      v = 0;
    }
  }

  [[nodiscard]] bool verify() const override {
    // Exact replay: identical generator, identical arithmetic, host-only.
    double rx = 0, ry = 0;
    std::vector<double> rq(10, 0.0);
    NpbRandom rng(seed_);
    const std::uint64_t total = static_cast<std::uint64_t>(batches_per_step()) *
                                kBatch * static_cast<std::uint64_t>(steps_);
    for (std::uint64_t p = 0; p < total; ++p) {
      const double x = 2.0 * rng.next() - 1.0;
      const double y = 2.0 * rng.next() - 1.0;
      const double t = x * x + y * y;
      if (t > 1.0) continue;
      const double f = std::sqrt(-2.0 * std::log(t) / t);
      const double gx = x * f;
      const double gy = y * f;
      const auto annulus =
          static_cast<std::size_t>(std::max(std::abs(gx), std::abs(gy)));
      if (annulus < 10) rq[annulus] += 1.0;
      rx += gx;
      ry += gy;
    }
    for (std::size_t a = 0; a < 10; ++a) {
      if (rq[a] != q_.host(a)) return false;
    }
    // Sums are reduced in a different order than the replay: allow fp slack.
    return std::abs(rx - sx_) <= 1e-8 * (1.0 + std::abs(rx)) &&
           std::abs(ry - sy_) <= 1e-8 * (1.0 + std::abs(ry));
  }

  [[nodiscard]] std::size_t footprint_bytes() const noexcept override {
    return q_.footprint_bytes();
  }

 private:
  [[nodiscard]] std::size_t batches_per_step() const noexcept {
    return static_cast<std::size_t>(
        pairs_ / (static_cast<std::uint64_t>(steps_) * kBatch));
  }

  std::uint64_t pairs_ = 0;
  int steps_ = 0;
  std::uint64_t seed_ = 0;
  double sx_ = 0, sy_ = 0;
  /// Per-rank Gaussian y sums: 8 slots, or one per rank for wider teams;
  /// step() folds every slot in rank order.
  std::vector<double> sy_partial_ = std::vector<double>(8, 0.0);
  Array<double> q_;
};

}  // namespace

namespace detail {
std::unique_ptr<Kernel> make_ep() { return std::make_unique<EpKernel>(); }
}  // namespace detail

}  // namespace paxsim::npb
