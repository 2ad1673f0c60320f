// bench/e2e/workloads.hpp — the four paxbench workloads (README.md says why
// each was chosen).  Every workload drives paxsim only through the public
// entry points README.md lists, times those calls from outside, and hashes
// every answer it gets so the driver can check correctness.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace paxbench {

inline constexpr std::uint64_t kDefaultSeed = 314159265;
/// Engine workers of every multi-threaded workload: at most 3 host threads
/// on a 4-way host, which keeps the Figure-3 pass repeatable.
inline constexpr int kJobs = 3;

struct Settings {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool smoke = false;    ///< class S and one round (the smoke test)
  std::string scratch;   ///< directory for result stores (serve-s)
};

/// What one round of a workload measured and answered.
struct Round {
  double wall_s = 0;
  std::uint64_t cells = 0;   ///< cells requested (answered or failed)
  std::uint64_t failed = 0;  ///< cells that failed inside the round
  double instructions = 0;   ///< simulated instructions of every answer
  /// Hash of every answered cell's wall cycles and counters, plan order.
  std::vector<std::uint64_t> hashes;
  /// Per-layer values measured in this round, by metric name.
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::string> errors;

  void put(std::string name, double value) {
    layer.emplace_back(std::move(name), value);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the state the next round runs on (plans and engine, job parse
  /// and store, or pooled machine).  The driver times it before every
  /// round.  Per-layer values measured inside (machine build, job parse)
  /// go to @p into.
  virtual void setup(Round& into) = 0;

  /// One timed round on the state the last setup() built; spans go to
  /// @p spans (a disabled recorder in untraced rounds).
  virtual Round round(Spans& spans) = 0;

  /// Phases only the traced run makes (reference-path round, model
  /// evaluation, store writes, machine builds); their values go to @p into.
  virtual void extras(Spans& spans, Round& into) {
    (void)spans;
    (void)into;
  }

  /// Workload-specific report lines (fig3-w's accuracy against the paper).
  virtual void report(std::ostream& os) const { (void)os; }

  /// Problem class the workload simulates ("B", "W", "S").
  [[nodiscard]] virtual std::string problem_class() const = 0;
};

/// The @p q quantile of @p v, interpolating between order statistics;
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// FNV-1a over the bytes of @p hashes: a round's result digest.
[[nodiscard]] std::uint64_t fold_hashes(const std::vector<std::uint64_t>& hashes);

/// The workload named settings.workload; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const Settings& settings);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace paxbench
