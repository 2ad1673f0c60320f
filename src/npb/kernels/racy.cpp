// Seeded-racy diagnostic kernels (not NPB suite members).
//
// These two kernels exist so the analysis subsystem (src/check/) has known
// positives to find; they are excluded from kAllBenchmarks and only run by
// checker tests and `--check=` experiments.
//
//   RW (RacyHist): every thread read-modify-writes a small shared histogram
//      with no synchronisation — the classic lost-update pattern.  Under any
//      multi-threaded schedule the detector must report write-write races on
//      the shared bins.
//   RF (RacyFlag): rank 0 publishes a flag word by plain store while the
//      other ranks poll it by plain load inside the same parallel region —
//      an unsynchronised publish, so write-read / read-write races on the
//      flag word.
//
// The simulator executes threads on one host thread, interleaved in virtual
// time, so the numbers these kernels compute are still deterministic and
// verify() can be exact; the *race* is in the happens-before structure of
// the simulated access stream, which is exactly what the detector sees.
#include <cstdint>

#include "npb/array.hpp"
#include "npb/kernel.hpp"
#include "npb/kernels_impl.hpp"

namespace paxsim::npb {
namespace {

struct RacySize {
  std::size_t iters;  // loop iterations per step
  int steps;
};

RacySize racy_size(ProblemClass c) {
  switch (c) {
    case ProblemClass::kClassS: return {2048, 2};
    case ProblemClass::kClassW: return {4096, 2};
    case ProblemClass::kClassA: return {8192, 2};
    case ProblemClass::kClassB: return {16384, 2};
  }
  return {2048, 2};
}

constexpr xomp::CodeBlock kBlkTally{1, 10};
constexpr xomp::CodeBlock kBlkPoll{1, 8};
constexpr std::size_t kBins = 64;

// Knuth multiplicative hash: spreads iterations over bins so every thread
// touches every bin (maximal write-write contention).
constexpr std::size_t bin_of(std::size_t i) noexcept {
  return static_cast<std::size_t>((i * 2654435761u) % kBins);
}

class RacyHistKernel final : public Kernel {
 public:
  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kRacyHist;
  }

  void setup(sim::AddressSpace& space, const ProblemConfig& cfg) override {
    const RacySize sz = racy_size(cfg.cls);
    iters_ = sz.iters;
    steps_ = sz.steps;
    hist_ = Array<double>(space, kBins);
    for (std::size_t b = 0; b < kBins; ++b) hist_.host(b) = 0.0;
  }

  [[nodiscard]] int total_steps() const noexcept override { return steps_; }

  void step(xomp::Team& team, int /*s*/) override {
    // Deliberately unsynchronised: Array::add is a load + store on a word
    // that every rank hits, with no critical/atomic bracket around it.
    team.parallel_for(0, iters_, xomp::Schedule::static_default(), kBlkTally,
                      [&](std::size_t i, sim::HwContext& ctx, int /*rank*/) {
                        // paxlint: allow(shared-scratch) -- seeded diagnostic race: racy.RW exists to be caught (paxcheck and paxlint's own tree test assert exactly this finding)
                        hist_.add(ctx, bin_of(i), 1.0);
                      });
  }

  [[nodiscard]] bool verify() const override {
    // Host execution is virtual-time serialised, so despite the race in the
    // simulated access stream the counts are exact.
    for (std::size_t b = 0; b < kBins; ++b) {
      double expect = 0.0;
      for (std::size_t i = 0; i < iters_; ++i) {
        if (bin_of(i) == b) expect += 1.0;
      }
      expect *= static_cast<double>(steps_);
      if (hist_.host(b) != expect) return false;
    }
    return true;
  }

  [[nodiscard]] double result_signature() const override {
    double sig = 0.0;
    for (std::size_t b = 0; b < kBins; ++b) {
      sig += static_cast<double>(b + 1) * hist_.host(b);
    }
    return sig;
  }

  [[nodiscard]] std::size_t footprint_bytes() const noexcept override {
    return hist_.footprint_bytes();
  }

 private:
  std::size_t iters_ = 0;
  int steps_ = 0;
  Array<double> hist_;
};

class RacyFlagKernel final : public Kernel {
 public:
  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kRacyFlag;
  }

  void setup(sim::AddressSpace& space, const ProblemConfig& cfg) override {
    const RacySize sz = racy_size(cfg.cls);
    iters_ = sz.iters;
    steps_ = sz.steps;
    flag_ = Array<double>(space, 1);
    flag_.host(0) = 0.0;
    writes_ = 0;
  }

  [[nodiscard]] int total_steps() const noexcept override { return steps_; }

  void step(xomp::Team& team, int /*s*/) override {
    const std::size_t stride = 64;
    team.parallel_for(
        0, iters_, xomp::Schedule::static_default(), kBlkPoll,
        [&](std::size_t i, sim::HwContext& ctx, int rank) {
          if (rank == 0) {
            // Unsynchronised publish: plain store, no release fence.
            if (i % stride == 0) {
              // paxlint: allow(shared-scratch) -- seeded diagnostic race: racy.RF's publish/poll pair exists to be caught (paxcheck and paxlint's own tree test assert exactly this finding)
              flag_.put(ctx, 0, static_cast<double>(++writes_));
            }
          } else {
            // Unsynchronised poll: plain load racing with rank 0's store.
            (void)flag_.get(ctx, 0);
            ctx.alu(1);
          }
        });
  }

  [[nodiscard]] bool verify() const override {
    // Only the writer's final store is checked: what the pollers observed
    // depends on the schedule, which is the point of the exercise.
    return flag_.host(0) == static_cast<double>(writes_) && writes_ > 0;
  }

  [[nodiscard]] double result_signature() const override {
    return flag_.host(0);
  }

  [[nodiscard]] std::size_t footprint_bytes() const noexcept override {
    return flag_.footprint_bytes();
  }

 private:
  std::size_t iters_ = 0;
  int steps_ = 0;
  std::uint64_t writes_ = 0;
  Array<double> flag_;
};

}  // namespace

namespace detail {
std::unique_ptr<Kernel> make_racy_hist() {
  return std::make_unique<RacyHistKernel>();
}
std::unique_ptr<Kernel> make_racy_flag() {
  return std::make_unique<RacyFlagKernel>();
}
}  // namespace detail

}  // namespace paxsim::npb
