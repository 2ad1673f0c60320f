// paxsim/tune/tuner.hpp
//
// The paxtune driver: model-first autotuning over the full configuration
// space.  For each kernel it lets a Strategy explore a SearchSpace through
// the analytical-model tier (ExperimentEngine::predict — microseconds per
// point after the one memoized profiling run), ranks the explored frontier
// by predicted wall cycles, then validates only the most promising
// candidates on the cycle-level simulator and crowns the best by MEASURED
// wall cycles.  The exhaustive grid validates everything it explores,
// making it the brute-force ground truth; greedy/anneal typically reach the
// same winners with a quarter of the simulator invocations (test-enforced
// against the engine's cache-miss counters).
//
// Everything downstream of the seed is deterministic: the model answers are
// pure, the strategies draw randomness only from their SplitMix64 stream,
// and the simulator cells are the engine's usual bit-reproducible cells —
// so a tuning run is itself a reproducible experiment, and its report says
// which seed to replay.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/engine.hpp"
#include "tune/space.hpp"
#include "tune/strategy.hpp"

namespace paxsim::tune {

/// Knobs of one tuning run (the search side; simulation knobs — class,
/// seed, verify, machine — ride in on the RunOptions/machine spec).
struct TuneOptions {
  std::string strategy = "greedy";  ///< grid | greedy | anneal
  /// Simulator validations per kernel for non-exhaustive strategies: the
  /// top-k model-ranked explored points.  The grid ignores this and
  /// validates everything it explored.
  int top_k = 2;
  int anneal_budget = 48;  ///< proposal steps for --strategy=anneal

  // Axis lists beyond the machine's configuration table.  An empty axis is
  // the single point the base RunOptions name (its sched_kind, sched_chunk,
  // grain or machine_scale), so the default space is exactly the Table-1
  // row set the paper brute-forced, at the run's own schedule, grain and
  // scale.
  std::vector<int> sched_kinds;
  std::vector<std::size_t> chunks;
  std::vector<std::size_t> grains;
  std::vector<double> scales;
};

/// One simulator-validated candidate.
struct Validated {
  Point point;
  std::string label;          ///< SearchSpace::describe(point)
  std::string config_name;    ///< resolved Table-1 row name
  std::size_t model_rank = 0; ///< 0 = model's favourite among explored
  double predicted_wall = 0;  ///< model wall cycles
  double sim_wall = 0;        ///< measured (simulated) wall cycles
  double sim_speedup = 0;     ///< serial anchor wall / sim_wall
};

/// One explored point, in exploration order (the strategy trajectory).
struct TrajectoryStep {
  Point point;
  std::string label;
  double predicted_wall = 0;
};

/// Tuning outcome for one kernel on one machine.
struct KernelResult {
  npb::Benchmark bench{};
  std::string machine;           ///< machine spec ("" = calibrated default)
  Validated best;                ///< winner by measured sim wall
  bool model_agrees = false;     ///< model rank 0 == simulator winner
  std::size_t space_cells = 0;   ///< distinct cells in the search space
  std::size_t explored = 0;      ///< distinct points the strategy visited
  std::size_t model_cells = 0;   ///< distinct model evaluations
  std::size_t sim_cells = 0;     ///< simulator invocations (engine misses)
  std::vector<TrajectoryStep> trajectory;
  std::vector<Validated> validated;  ///< model-rank order
};

/// A whole tuning run: per-kernel winners plus the engine's ledger.
struct TuneReport {
  std::string strategy;
  int top_k = 0;
  std::uint64_t seed = 0;
  std::string machine;
  char problem_class = 'S';
  std::vector<KernelResult> kernels;
  harness::EngineStats stats;  ///< engine counters after the run
};

/// Tunes every benchmark in @p benches on @p engine.  @p base_opt supplies
/// the problem class, seeding, verification policy, the machine topology
/// (RunOptions::topology; @p machine_spec is its display name) and the
/// value of every axis @p topt leaves empty.
/// Throws std::invalid_argument on an unknown strategy or an invalid
/// search space.
[[nodiscard]] TuneReport tune(harness::ExperimentEngine& engine,
                              const std::vector<npb::Benchmark>& benches,
                              const harness::RunOptions& base_opt,
                              const std::string& machine_spec,
                              const TuneOptions& topt);

/// Emits @p report as a schema-versioned "tuning_report" JSON document on
/// @p out (the PR 5 report layer's envelope).
void write_tuning_report(std::ostream& out, const TuneReport& report);

}  // namespace paxsim::tune
