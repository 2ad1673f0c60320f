// paxsim/xomp/schedule.hpp
//
// OpenMP-style loop schedules and the static-code-block descriptor kernels
// use to describe their loop bodies to the front-end model.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/types.hpp"

namespace paxsim::xomp {

/// OpenMP loop schedule kinds (OpenMP 2.5, the version the paper used).
enum class ScheduleKind : std::uint8_t {
  kStatic,   ///< contiguous blocks, decided at region entry
  kDynamic,  ///< threads pull fixed-size chunks from a shared counter
  kGuided,   ///< chunk size decays with remaining work
};

/// A loop schedule: kind plus chunk parameter (0 = implementation default,
/// which for static means one contiguous block per thread and for
/// dynamic/guided means chunk size 1).
struct Schedule {
  ScheduleKind kind = ScheduleKind::kStatic;
  std::size_t chunk = 0;
  /// A loop whose partition another loop relies on: a schedule override
  /// changes only its chunk, as `schedule(static)` ignores OMP_SCHEDULE.
  bool keep_static = false;

  [[nodiscard]] static constexpr Schedule static_default() noexcept { return {}; }
  [[nodiscard]] static constexpr Schedule static_partition() noexcept {
    return {ScheduleKind::kStatic, 0, true};
  }
  [[nodiscard]] static constexpr Schedule dynamic(std::size_t c = 1) noexcept {
    return {ScheduleKind::kDynamic, c};
  }
  [[nodiscard]] static constexpr Schedule guided(std::size_t c = 1) noexcept {
    return {ScheduleKind::kGuided, c};
  }
};

/// Describes the static code of a loop body: a block id (unique within the
/// program) and its decoded size in uops.  The runtime fetches the block
/// through the trace cache once per dynamic iteration.
struct CodeBlock {
  sim::BlockId id = 0;
  std::uint32_t uops = 8;
};

}  // namespace paxsim::xomp
