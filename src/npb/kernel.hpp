// paxsim/npb/kernel.hpp
//
// The benchmark-kernel interface and the suite registry.
//
// Each kernel is the NAS Parallel Benchmark algorithm re-implemented in C++
// against the instrumented-array API: the numbers computed are real (and
// verified), and the address/branch stream presented to the simulator is the
// algorithm's own.
//
// Problem classes: NPB classes rescaled by the same factor as the machine's
// caches (DESIGN.md).  `kClassB` is the study default and is tuned so that
// the per-benchmark working-set : L2 ratios land in the same regimes the
// paper reports for real class B on the 2 MB Paxville L2.
//
// Kernels execute in `step()` granules (one outer iteration each) so that
// the multi-program co-scheduler can interleave two programs in virtual
// time, the way two processes share a real machine.
#pragma once

#include <memory>
#include <string_view>

#include "sim/machine.hpp"
#include "xomp/team.hpp"

namespace paxsim::npb {

/// Suite members (NPB-OMP 3.x), plus two deliberately racy diagnostic
/// kernels (kRacyHist "RW", kRacyFlag "RF") that seed known data races for
/// the analysis subsystem (src/check/) to find.  The racy kernels are never
/// part of kAllBenchmarks: study drivers iterate the suite, the checker
/// tests request them by name.
enum class Benchmark { kCG, kMG, kFT, kIS, kEP, kBT, kSP, kLU,
                       kRacyHist, kRacyFlag };

/// All suite members, in the paper's listing order (kernels then apps).
inline constexpr Benchmark kAllBenchmarks[] = {
    Benchmark::kCG, Benchmark::kMG, Benchmark::kFT, Benchmark::kIS,
    Benchmark::kEP, Benchmark::kBT, Benchmark::kSP, Benchmark::kLU};

/// The seeded-racy diagnostic kernels (checker tests only).
inline constexpr Benchmark kRacyBenchmarks[] = {Benchmark::kRacyHist,
                                                Benchmark::kRacyFlag};

/// Short uppercase name ("CG", "MG", ...).
[[nodiscard]] std::string_view benchmark_name(Benchmark b) noexcept;

/// Parses "CG"/"cg" etc.; returns true on success.
bool parse_benchmark(std::string_view s, Benchmark& out) noexcept;

/// Rescaled NPB problem classes (see DESIGN.md: problem sizes shrink by the
/// same factor as the simulated caches, preserving pressure regimes).
enum class ProblemClass { kClassS, kClassW, kClassA, kClassB };

[[nodiscard]] std::string_view class_name(ProblemClass c) noexcept;

/// Per-run problem configuration.
struct ProblemConfig {
  ProblemClass cls = ProblemClass::kClassB;
  std::uint64_t seed = 314159265;  ///< data seed; varied across trials
};

/// A benchmark kernel instance.  Lifecycle:
///   setup(space, cfg)  — untimed: allocate & initialise data
///   step(team, s) for s in [0, total_steps())   — the timed region
///   verify()           — numeric validation of the computed results
class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual Benchmark id() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept {
    return benchmark_name(id());
  }

  /// Allocates and initialises problem data (untimed, host side).  @p space
  /// must outlive the last step(): a kernel may allocate per-rank data
  /// from it again when a step's team is wider than setup planned for.
  virtual void setup(sim::AddressSpace& space, const ProblemConfig& cfg) = 0;

  /// Number of timed outer iterations.
  [[nodiscard]] virtual int total_steps() const noexcept = 0;

  /// Executes timed outer iteration @p s on @p team.
  virtual void step(xomp::Team& team, int s) = 0;

  /// Validates the numeric result after all steps have run.
  [[nodiscard]] virtual bool verify() const = 0;

  /// A scalar digest of the computed result (NPB prints analogous
  /// verification values).  Two runs of the same problem (same class and
  /// seed) must produce signatures equal up to parallel-reduction
  /// reassociation error, regardless of the hardware configuration that
  /// executed them — the cross-configuration determinism property the test
  /// suite enforces.
  [[nodiscard]] virtual double result_signature() const = 0;

  /// Approximate simulated-data footprint, for reporting.
  [[nodiscard]] virtual std::size_t footprint_bytes() const noexcept = 0;
};

/// Creates a fresh kernel instance for @p b.
[[nodiscard]] std::unique_ptr<Kernel> make_kernel(Benchmark b);

}  // namespace paxsim::npb
