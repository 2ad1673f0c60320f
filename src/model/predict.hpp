// paxsim/model/predict.hpp
//
// The analytical layer of paxmodel: maps one KernelProfile (collected from a
// single profiled serial run, model/profile.hpp) to predicted cache/TLB hit
// rates, bus occupancy, CPI, wall time and speedup for *any* MachineParams
// and thread placement — the instant what-if tier next to full simulation.
//
// Model structure (each piece mirrors the simulator's cost model so the two
// tiers disagree only where the analytical abstractions lose information):
//
//   capacity   per-thread reuse-distance histograms integrated against the
//              target geometry, with a Poisson set-conflict correction and
//              per-context competitive capacity sharing under SMT;
//   SMT        the paper's partitioned-buffer asymmetry: issue stretched by
//              smt_issue_stretch, independent-miss overlap degraded to the
//              mt_* factors, chained loads unaffected (CG's HT win);
//   sharing    cross-owner transitions on written lines become cache-to-
//              cache misses when the owners map to different cores;
//   prefetch   sequential DRAM candidates (stream detection at profile
//              time) are rescued to L2 at kPrefetchCoverage;
//   bandwidth  FSB-per-package and memory-controller rooflines bound the
//              wall time, with a queueing inflation of the DRAM latency as
//              controller utilisation grows;
//   Amdahl     the serial uop fraction runs at serial-mode speed; the
//              parallel remainder divides by the thread count times the
//              static-schedule imbalance factor.
//
// Anchoring: when profile.anchor is valid (the harness fills it from the
// profiling run's own counters), absolute scales are corrected by the
// measured-over-modelled serial ratios, so configuration predictions
// extrapolate relative effects from a measured baseline.  The Serial
// configuration then reproduces the anchor exactly by construction.
#pragma once

#include <array>
#include <cstdint>

#include "model/profile.hpp"
#include "perf/metrics.hpp"
#include "sim/params.hpp"

namespace paxsim::model {

/// Where a team's threads land on the machine — the placement facts the
/// model needs from a harness StudyConfig (kept free of harness types so
/// the dependency points harness -> model only).
struct Placement {
  /// Upper bound on team size the model resolves core placement for; wide
  /// enough for every topology the simulator accepts (numa16 is 16 ranks).
  static constexpr std::size_t kMaxRanks = 32;

  int threads = 1;             ///< team size
  int cores_used = 1;          ///< distinct physical cores occupied
  int chips_used = 1;          ///< distinct packages occupied
  int contexts_per_core = 1;   ///< max team contexts sharing one core
  int contexts_per_chip = 1;   ///< max team contexts sharing one package
  /// Global physical-core index (Topology::core_id) of each
  /// thread rank; only the first `threads` entries are meaningful.
  std::array<std::uint8_t, kMaxRanks> rank_core{};

  [[nodiscard]] static Placement serial() noexcept { return Placement{}; }
};

/// Predicted outcome of one benchmark on one configuration.  Counts are
/// expected values (fractional); `metrics` carries the same Figure-2 bundle
/// simulation reports, so the two tiers emit one schema.
struct Prediction {
  double wall_cycles = 0;        ///< predicted completion time
  double serial_wall_cycles = 0; ///< predicted Serial wall (speedup base)
  double speedup = 1.0;          ///< serial_wall_cycles / wall_cycles
  double cycles = 0;             ///< total context execution cycles
  double instructions = 0;
  perf::Metrics metrics;         ///< the Figure-2 bundle

  // Expected event counts backing the metrics.
  double l1d_refs = 0, l1d_misses = 0;
  double l2_refs = 0, l2_misses = 0;
  double tc_refs = 0, tc_misses = 0;
  double itlb_refs = 0, itlb_misses = 0;
  double dtlb_misses = 0;
  double branches = 0, mispredicts = 0;
  double bus_reads = 0, bus_writes = 0, bus_prefetches = 0;
  double coherence_transfers = 0;
  double stall_mem = 0, stall_fe = 0, stall_tlb = 0, stall_branch = 0;
  /// Memory-controller busy cycles over predicted wall (roofline pressure).
  double mc_utilization = 0;
};

/// Evaluates the analytical model: @p profile from a profiled serial run,
/// @p params the target machine (any geometry/scale), @p place the thread
/// placement.  Pure computation — microseconds, no simulation.
[[nodiscard]] Prediction predict(const KernelProfile& profile,
                                 const sim::MachineParams& params,
                                 const Placement& place);

}  // namespace paxsim::model
