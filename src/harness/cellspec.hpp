// paxsim/harness/cellspec.hpp
//
// CellSpec — the one public way to assemble the (StudyConfig, RunOptions,
// CellKey) triple that names a simulation or prediction cell.  Before it,
// three construction paths existed side by side (the CLI's flag handling,
// serve's job-file expansion and each bench driver's ad-hoc RunOptions
// assembly), and every new axis had to be threaded through all three.  Now
// the axes are set fluently —
//
//   auto cell = CellSpec::bench(npb::Benchmark::kCG)
//                   .machine("paxville")
//                   .config("HT off -4-2")
//                   .problem_class('S')
//                   .schedule("dynamic", 8)
//                   .mode(CellSpec::Mode::kSingle)
//                   .resolve();
//
// — and resolve() performs every cross-field validation in one place: the
// machine spec resolves to a topology, the configuration name resolves
// against THAT machine's Table-1 analogue, and the schedule/grain/scale
// knobs land in the RunOptions fields CellKey::from projects.  The resolved
// cell can mint its CellKey (and store fingerprint/digest) for any trial.
//
// Builders accumulate errors instead of throwing: the first bad setter wins
// and resolve() reports it, so fluent chains stay exception-free until the
// caller decides how to surface the problem.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "npb/kernel.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {

class CellSpec {
 public:
  /// What the cell asks of the engine; mirrors CellKey::Kind.
  enum class Mode : std::uint8_t { kSingle, kPair, kPredict };

  /// Entry points: every spec starts from a benchmark.
  [[nodiscard]] static CellSpec bench(npb::Benchmark b);
  /// Name-parsing variant; an unknown name becomes a resolve()-time error.
  [[nodiscard]] static CellSpec bench(std::string_view name);

  /// Second program of a pair cell (sets mode kPair).
  CellSpec& pair_with(npb::Benchmark b);
  CellSpec& pair_with(std::string_view name);

  /// Machine to simulate: "", "default" or a preset/JSON spec resolved via
  /// sim::Topology::resolve.  The overload taking a Topology adopts an
  /// already resolved machine (serve's job expansion path).
  CellSpec& machine(std::string_view spec);
  CellSpec& machine(std::shared_ptr<const sim::Topology> topo);

  /// Configuration by name, resolved at resolve() time against the
  /// machine's configuration table — or an explicit row (ad-hoc ladders).
  CellSpec& config(std::string_view name);
  CellSpec& config(const StudyConfig& cfg);

  CellSpec& problem_class(npb::ProblemClass cls);
  CellSpec& problem_class(char letter);
  CellSpec& scale(double machine_scale);
  CellSpec& grain(std::size_t grain);
  /// Loop-schedule override: kind -1 (kernel default) or
  /// xomp::ScheduleKind cast to int, plus the chunk parameter.
  CellSpec& schedule(int sched_kind, std::size_t chunk = 0);
  /// Named variant: "default", "static", "dynamic" or "guided".
  CellSpec& schedule(std::string_view name, std::size_t chunk = 0);
  CellSpec& trials(int n);
  CellSpec& seed(std::uint64_t base_seed);
  CellSpec& verify(bool on);
  CellSpec& check(sim::CheckMode mode);
  CellSpec& trace(sim::TraceMode mode);
  CellSpec& mode(Mode m);

  /// A fully validated cell: the config/options pair every runner consumes
  /// plus the identity helpers the store and the engine cache key on.
  struct Resolved {
    npb::Benchmark a{};
    npb::Benchmark b{};  ///< == a unless mode is kPair
    Mode mode = Mode::kSingle;
    StudyConfig cfg;
    RunOptions opt;
    std::string machine_spec;  ///< normalized ("" = default machine)

    [[nodiscard]] CellKey key(int trial = 0) const;
    [[nodiscard]] std::string fingerprint(int trial = 0) const;
    [[nodiscard]] std::string digest(int trial = 0) const;
  };

  /// Validates and resolves the spec.  False (with *why filled) on the
  /// first accumulated builder error or any cross-field failure; @p out is
  /// untouched on failure.
  [[nodiscard]] bool resolve(Resolved* out, std::string* why) const;

  /// Throwing convenience for call sites that treat a bad spec as a bug.
  [[nodiscard]] Resolved resolve() const;

 private:
  CellSpec() = default;
  void fail(std::string why);

  npb::Benchmark a_{};
  npb::Benchmark b_{};
  bool has_pair_ = false;
  Mode mode_ = Mode::kSingle;
  bool mode_set_ = false;
  std::string machine_spec_;
  std::shared_ptr<const sim::Topology> topology_;
  bool machine_resolved_ = false;  ///< topology_/machine_spec_ authoritative
  std::string config_name_;
  StudyConfig explicit_cfg_;
  bool has_explicit_cfg_ = false;
  RunOptions opt_;
  std::string error_;  ///< first builder error; resolve() reports it
};

}  // namespace paxsim::harness
