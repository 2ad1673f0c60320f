// paxsim/sim/types.hpp
//
// Fundamental vocabulary types of the machine model.
#pragma once

#include <cstddef>
#include <cstdint>

namespace paxsim::sim {

/// Virtual time, in core clock cycles (2.8 GHz in the calibrated machine).
using Cycle = std::uint64_t;

/// A byte address in the simulated physical address space.
using Addr = std::uint64_t;

/// Identifier of a static code block (loop body, function) used by the
/// trace-cache and ITLB front-end model.  Kernels assign small dense ids.
using BlockId = std::uint32_t;

/// Dependency class of a memory access, which controls how much of the
/// access latency an out-of-order core can hide.
enum class Dep : std::uint8_t {
  kIndependent,  ///< address available early; latency largely overlapped
  kChained,      ///< pointer-chase / indirect: latency fully exposed
};

/// True if @p v is a nonzero power of two.
[[nodiscard]] constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Floor log2 for powers of two.
[[nodiscard]] constexpr unsigned log2_exact(std::uint64_t v) noexcept {
  unsigned n = 0;
  while (v > 1) {
    v >>= 1;
    ++n;
  }
  return n;
}

/// Geometry of one set-associative structure.
struct CacheGeometry {
  std::size_t size_bytes = 0;  ///< total capacity
  std::size_t line_bytes = 64; ///< line (block) size
  std::size_t ways = 8;        ///< associativity

  [[nodiscard]] constexpr std::size_t lines() const noexcept {
    return size_bytes / line_bytes;
  }
  [[nodiscard]] constexpr std::size_t sets() const noexcept {
    return lines() / ways;
  }
};

/// Identifies one hardware context of the machine by its position.  Its
/// dense number depends on the machine's shape: see sim::Topology::flat().
struct LogicalCpu {
  std::uint8_t chip = 0;     ///< physical package
  std::uint8_t core = 0;     ///< core within the package
  std::uint8_t context = 0;  ///< SMT hardware context within the core

  friend constexpr bool operator==(LogicalCpu, LogicalCpu) = default;
};

}  // namespace paxsim::sim
