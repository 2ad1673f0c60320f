// paxsim/npb/rng.hpp
//
// The NAS Parallel Benchmarks linear congruential generator ("randlc"):
//   x_{k+1} = a * x_k  mod 2^46,   a = 5^13,
// returning uniform doubles in (0,1).  Implemented with 64-bit integer
// arithmetic (2^46 fits comfortably), bit-exact with the NPB definition, so
// EP's Gaussian-pair counts are reproducible.
#pragma once

#include <cstdint>

namespace paxsim::npb {

/// The suite's one default data seed (NPB's own starting value): the seed
/// of ProblemConfig, RunOptions::base_seed and NpbRandom, and the seed at
/// which harness::CellKey::from simulates every trial of a cell whose
/// programs' seeds never reach the simulator (seed_reaches_simulator).
inline constexpr std::uint64_t kDefaultSeed = 314159265;

/// NPB randlc generator.
class NpbRandom {
 public:
  static constexpr std::uint64_t kModMask = (std::uint64_t{1} << 46) - 1;
  static constexpr std::uint64_t kA = 1220703125;  // 5^13

  explicit NpbRandom(std::uint64_t seed = kDefaultSeed) noexcept
      : x_(seed & kModMask) {}

  /// Next uniform double in (0,1).
  double next() noexcept {
    x_ = mul46(kA, x_);
    return static_cast<double>(x_) * kR46;
  }

  /// Jumps the stream ahead by @p n draws in O(log n) (NPB's power method),
  /// used to give each thread an independent, reproducible substream.
  void skip(std::uint64_t n) noexcept {
    std::uint64_t a = kA;
    while (n != 0) {
      if (n & 1) x_ = mul46(a, x_);
      a = mul46(a, a);
      n >>= 1;
    }
  }

  [[nodiscard]] std::uint64_t state() const noexcept { return x_; }

 private:
  static constexpr double kR46 = 1.0 / static_cast<double>(std::uint64_t{1} << 46);

  static std::uint64_t mul46(std::uint64_t a, std::uint64_t b) noexcept {
    // 46-bit modular product via 128-bit intermediate.
    return static_cast<std::uint64_t>(
               (static_cast<unsigned __int128>(a) * b)) &
           kModMask;
  }

  std::uint64_t x_;
};

}  // namespace paxsim::npb
