// paxsim/harness/engine.hpp
//
// The experiment engine — the execution layer every study driver (the CLI
// and each bench/ artifact) routes through instead of hand-rolling
// benchmark x configuration x trial loops.
//
//   * MachinePool      recycles sim::Machine instances across trials via
//                      reset() instead of reconstructing them.  A recycled
//                      machine is bit-identical to a fresh one (enforced by
//                      the engine determinism tests).
//   * result cache     memoizes every simulated cell, keyed by
//                      (kind, benchmarks, config fingerprint, problem class,
//                      machine scale, seed, verify).  Serial baselines,
//                      repeated cells and the trials of a kernel whose seed
//                      never reaches the simulator are simulated exactly
//                      once per engine lifetime, however many studies
//                      request them.
//   * worker dispatch  for_each() is the one pool of host threads (--jobs);
//                      run() and the serve driver fan cells out through it.
//                      Each cell simulates on its own leased pooled machine,
//                      so simulated virtual time stays fully deterministic:
//                      the result table is identical for any job count.
//   * ExperimentPlan   a declarative cross-product (benchmarks and/or pairs,
//                      over configurations, over trial seeds, with optional
//                      serial baselines) that ExperimentEngine::run()
//                      evaluates into a StudyResult table.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "model/predict.hpp"

namespace paxsim::harness {

/// Semantic fingerprint of a configuration: name, architecture, HT state,
/// thread count and the exact hardware-context list.  Cache keys use this
/// rather than the bare name so ad-hoc configurations (e.g. the thread-
/// scaling ladder) memoize correctly even when their names collide.
[[nodiscard]] std::string config_fingerprint(const StudyConfig& cfg);

/// Counters describing what the engine actually did.
struct EngineStats {
  std::uint64_t cache_hits = 0;      ///< cells answered from the in-RAM cache
  std::uint64_t cache_misses = 0;    ///< cells that had to be simulated
  std::uint64_t store_hits = 0;      ///< cells answered from the on-disk store
  std::uint64_t store_writes = 0;    ///< freshly simulated cells persisted
  std::uint64_t machines_created = 0;   ///< sim::Machine constructions
  std::uint64_t machines_acquired = 0;  ///< pool acquisitions (incl. reuse)

  [[nodiscard]] double hit_rate() const noexcept {
    const double total =
        static_cast<double>(cache_hits) + static_cast<double>(cache_misses);
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

/// A thread-safe pool of reset-recycled machines of one geometry.
class MachinePool {
 public:
  explicit MachinePool(const sim::MachineParams& params) : params_(params) {}

  /// RAII handle to a pooled machine; returns (and resets) it on
  /// destruction.  Move-only, confined to one host thread while held.
  class Lease {
   public:
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), machine_(std::move(o.machine_)) {
      o.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] sim::Machine& operator*() noexcept { return *machine_; }
    [[nodiscard]] sim::Machine* operator->() noexcept { return machine_.get(); }

   private:
    friend class MachinePool;
    Lease(MachinePool* pool, std::unique_ptr<sim::Machine> m)
        : pool_(pool), machine_(std::move(m)) {}

    MachinePool* pool_;
    std::unique_ptr<sim::Machine> machine_;
  };

  /// Hands out a cold machine: a recycled one when available, else new.
  [[nodiscard]] Lease acquire();

  [[nodiscard]] const sim::MachineParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] std::uint64_t created() const;
  [[nodiscard]] std::uint64_t acquired() const;

 private:
  void release(std::unique_ptr<sim::Machine> m);

  sim::MachineParams params_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<sim::Machine>> free_;
  std::uint64_t created_ = 0;
  std::uint64_t acquired_ = 0;
};

/// Identity of one memoizable simulation cell.  kPredict keys identify
/// analytical-prediction answers in the persistent result store (they never
/// appear in the simulation cell cache or in plan enumeration).
struct CellKey {
  enum class Kind : std::uint8_t { kSingle, kPair, kPredict };

  Kind kind = Kind::kSingle;
  npb::Benchmark a{};
  npb::Benchmark b{};      ///< == a for singles
  std::string config;      ///< config_fingerprint of the configuration
  npb::ProblemClass cls{};
  double machine_scale = 0;
  /// The seed the cell simulates at: the trial seed, or npb::kDefaultSeed
  /// when no program's seed reaches the simulated path
  /// (npb::seed_reaches_simulator, applied by canonical()), so that all
  /// trials share one cell.
  std::uint64_t seed = 0;
  bool verify = true;
  std::size_t grain = 1;   ///< RunOptions::grain (changes interleaving)
  /// RunOptions::sched_kind / sched_chunk: a loop-schedule override changes
  /// the interleaving exactly like grain does, so overridden cells never
  /// alias kernel-default ones.  -1 / 0 is the kernel-default identity:
  /// canonical() drops a chunk that sits next to kind -1.
  int sched_kind = -1;
  std::size_t sched_chunk = 0;
  /// RunOptions::topology projected through Topology::fingerprint(): cells
  /// simulated on different machines never alias.  Empty for the default
  /// machine (a null RunOptions::topology).
  std::string machine;

  /// The one place RunOptions is projected onto a cell identity.  Every
  /// result-relevant RunOptions field must flow through here (trials and
  /// base_seed are plan-level: the per-trial seed is the @p seed argument),
  /// and the key it returns is canonical(); a sizeof tripwire in
  /// engine.cpp fails the build when RunOptions grows a field this factory
  /// has not been audited against.
  [[nodiscard]] static CellKey from(Kind kind, npb::Benchmark a,
                                    npb::Benchmark b, const StudyConfig& cfg,
                                    const RunOptions& opt, std::uint64_t seed);
  /// Single-program shorthand (b == a).
  [[nodiscard]] static CellKey from(npb::Benchmark b, const StudyConfig& cfg,
                                    const RunOptions& opt, std::uint64_t seed) {
    return from(Kind::kSingle, b, b, cfg, opt, seed);
  }

  /// The one canonicalising step, which from() ends with: the seed becomes
  /// npb::kDefaultSeed when neither program's seed reaches the simulator,
  /// and a chunk next to the kernel-default schedule is dropped.  Both name
  /// the same run either way.  A key this step changes is one from() can
  /// no longer mint (`paxsim store gc` removes such entries).
  [[nodiscard]] CellKey canonical() const;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

struct CellKeyHash {
  [[nodiscard]] std::size_t operator()(const CellKey& k) const noexcept;
};

/// Version of the explicit CellKey wire fingerprint below.  Bump whenever a
/// field changes meaning, width or order — on-disk stores key entries by
/// the digest of this serialization, so a silent format change would alias
/// incompatible results.  v2 added the schedule-override fields
/// (sched_kind/sched_chunk) for the paxtune schedule axis; its check and
/// trace slots are always written as 00 (no cell is checked or traced).
inline constexpr int kCellFingerprintVersion = 2;

/// Canonical serialized identity of a cell: every CellKey field rendered
/// explicitly (field-by-field, fixed-width hex for scalars, length-prefixed
/// bytes for strings), prefixed with kCellFingerprintVersion.  Deliberately
/// independent of in-memory struct layout, compiler, ABI and endianness —
/// the same key fingerprints identically on every build, so on-disk stores
/// written by different binaries interoperate.  Injective: two distinct
/// keys can never serialize equal (golden-fingerprint test enforced).
[[nodiscard]] std::string cell_fingerprint(const CellKey& k);

/// The inverse of cell_fingerprint: fills @p out and returns true exactly
/// when @p fingerprint is cell_fingerprint() of some key at this binary's
/// kCellFingerprintVersion.  A truncated string, a bad hex digit, an
/// out-of-range enum or another version is refused (false, @p out
/// untouched).
[[nodiscard]] bool parse_cell_fingerprint(std::string_view fingerprint,
                                          CellKey* out);

/// 128-bit content digest of a fingerprint as 32 lowercase hex characters —
/// the on-disk address of a cell (serve::ResultStore's object name).
[[nodiscard]] std::string cell_digest(std::string_view fingerprint);

/// The value of one simulation cell: the single-program result, or the
/// pair result, according to the key's kind.
struct CellValue {
  RunResult single;
  PairResult pair;
};

/// Abstract persistent cell store the engine can write through to
/// (serve::ResultStore is the on-disk implementation; the indirection keeps
/// harness/ below serve/ in the layering).  Implementations must be
/// thread-safe: engine workers load and store cells concurrently.
class CellStore {
 public:
  virtual ~CellStore() = default;

  /// Loads the stored result for @p key; false when absent (or rejected —
  /// version mismatch, corruption — which the store treats as absence).
  virtual bool load_cell(const CellKey& key, CellValue* out) = 0;
  /// Persists a freshly simulated cell (atomic, last-writer-wins between
  /// writers computing the identical deterministic value).
  virtual void store_cell(const CellKey& key, const CellValue& value) = 0;

  /// Same contract for analytical predictions (CellKey::Kind::kPredict).
  virtual bool load_prediction(const CellKey& key, model::Prediction* out) = 0;
  virtual void store_prediction(const CellKey& key,
                                const model::Prediction& p) = 0;
};

/// A declarative experiment: benchmarks and/or co-scheduled pairs, crossed
/// with configurations and trial seeds.  Build one, hand it to
/// ExperimentEngine::run(), read the StudyResult.
class ExperimentPlan {
 public:
  /// @p options supplies the problem class, machine scale, trial count,
  /// seeding and verification policy for every cell of the plan.
  ExperimentPlan(RunOptions options, std::vector<StudyConfig> configs)
      : options_(options), configs_(std::move(configs)) {}

  ExperimentPlan& add_benchmark(npb::Benchmark b) {
    benchmarks_.push_back(b);
    return *this;
  }
  ExperimentPlan& add_benchmarks(const std::vector<npb::Benchmark>& bs) {
    benchmarks_.insert(benchmarks_.end(), bs.begin(), bs.end());
    return *this;
  }
  /// Adds one co-scheduled pair (threads split evenly, as run_pair does).
  ExperimentPlan& add_pair(npb::Benchmark a, npb::Benchmark b) {
    pairs_.emplace_back(a, b);
    return *this;
  }
  /// All unordered pairs of @p bs, identical pairs included — the Figure-5
  /// cross-product.
  ExperimentPlan& add_all_pairs(const std::vector<npb::Benchmark>& bs) {
    for (std::size_t i = 0; i < bs.size(); ++i) {
      for (std::size_t j = i; j < bs.size(); ++j) pairs_.emplace_back(bs[i], bs[j]);
    }
    return *this;
  }
  /// Also computes the Serial-config baseline for every benchmark the plan
  /// mentions (single or pair member), per trial seed — the denominators of
  /// every speedup the drivers report.
  ExperimentPlan& with_serial_baselines(bool on = true) {
    serial_baselines_ = on;
    return *this;
  }
  ExperimentPlan& trials(int n) {
    options_.trials = n;
    return *this;
  }

  [[nodiscard]] const RunOptions& options() const noexcept { return options_; }
  [[nodiscard]] const std::vector<StudyConfig>& configs() const noexcept {
    return configs_;
  }
  [[nodiscard]] const std::vector<npb::Benchmark>& benchmarks() const noexcept {
    return benchmarks_;
  }
  [[nodiscard]] const std::vector<std::pair<npb::Benchmark, npb::Benchmark>>&
  pairs() const noexcept {
    return pairs_;
  }
  [[nodiscard]] bool serial_baselines() const noexcept {
    return serial_baselines_;
  }

 private:
  RunOptions options_;
  std::vector<StudyConfig> configs_;
  std::vector<npb::Benchmark> benchmarks_;
  std::vector<std::pair<npb::Benchmark, npb::Benchmark>> pairs_;
  bool serial_baselines_ = false;
};

/// The evaluated result table of one plan.  Indexing mirrors the plan:
/// configurations by position in plan.configs(), pairs by position in
/// plan.pairs(), trials by trial number (seed = options.trial_seed(t)).
class StudyResult {
 public:
  [[nodiscard]] const ExperimentPlan& plan() const noexcept { return plan_; }

  /// Single-program result of @p b on configuration @p config_index.
  [[nodiscard]] const RunResult& single(npb::Benchmark b,
                                        std::size_t config_index,
                                        int trial = 0) const;
  /// Serial-baseline result of @p b (requires with_serial_baselines()).
  [[nodiscard]] const RunResult& serial(npb::Benchmark b, int trial = 0) const;
  /// Pair result of plan.pairs()[pair_index] on @p config_index.
  [[nodiscard]] const PairResult& pair(std::size_t pair_index,
                                       std::size_t config_index,
                                       int trial = 0) const;

  /// serial wall / single wall for one trial.
  [[nodiscard]] double speedup(npb::Benchmark b, std::size_t config_index,
                               int trial = 0) const;
  /// Speedup summarised over all plan trials (the Figure-3 cell).
  [[nodiscard]] TrialStats speedup_stats(npb::Benchmark b,
                                         std::size_t config_index) const;

 private:
  friend class ExperimentEngine;

  [[nodiscard]] const CellValue& at(const CellKey& key) const;

  ExperimentPlan plan_{RunOptions{}, {}};
  std::unordered_map<CellKey, CellValue, CellKeyHash> cells_;
};

/// Thread placement the analytical model needs from a Table-1 row on
/// @p topo: team size, distinct cores/chips occupied, the worst-case SMT
/// sharing degree and each rank's physical core (@p topo's core_id()).
[[nodiscard]] model::Placement placement_for(const StudyConfig& cfg,
                                             const sim::Topology& topo);

/// Outcome of ExperimentEngine::predict(): the analytical prediction plus
/// the host-time split that backs the "N x faster than simulation" claim.
struct PredictionResult {
  model::Prediction prediction;
  /// Host seconds of the profiling run backing this prediction; 0 when the
  /// profile was answered from the engine's memo cache.
  double profile_host_sec = 0;
  /// Host seconds of the analytical evaluation itself (microseconds).
  double predict_host_sec = 0;
  bool profile_reused = false;   ///< profile came from the memo cache
};

/// The engine: machine pool + memoized cell cache + worker dispatch.
class ExperimentEngine {
 public:
  /// @p jobs is the host-thread worker count for run()/for_each(); 1 runs
  /// everything inline on the caller's thread.
  explicit ExperimentEngine(int jobs = 1);

  ExperimentEngine(const ExperimentEngine&) = delete;
  ExperimentEngine& operator=(const ExperimentEngine&) = delete;

  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Attaches a persistent cell store (nullptr detaches).  With a store
  /// attached, cache misses consult the store before simulating, and every
  /// freshly simulated cell is written through.  Detached (the default),
  /// behaviour is bit-identical to the pre-store engine.
  void set_store(std::shared_ptr<CellStore> store);

  /// Evaluates @p plan: dedupes its cells against the cache, simulates the
  /// missing ones through for_each(), and assembles the result table.  Each
  /// simulated cell is memoized (and written through) as it finishes.
  /// Throws if any cell fails numeric verification (when options.verify);
  /// the cells other workers finished first stay memoized.
  StudyResult run(const ExperimentPlan& plan);

  /// Memoized single-cell entry points (pooled machine on miss).
  RunResult single(npb::Benchmark b, const StudyConfig& cfg,
                   const RunOptions& opt, std::uint64_t seed);
  RunResult serial(npb::Benchmark b, const RunOptions& opt,
                   std::uint64_t seed);
  PairResult pair(npb::Benchmark a, npb::Benchmark b, const StudyConfig& cfg,
                  const RunOptions& opt, std::uint64_t seed);

  /// Analytical prediction of @p b on @p cfg — the instant tier next to
  /// single().  Profiles @p b once per (class, scale, seed, grain) with
  /// run_profiled_serial on a pooled machine (memoized for the engine's
  /// lifetime; the seed is the prediction key's, so a kernel whose seed
  /// never reaches the simulator profiles once whatever the trial seed),
  /// then evaluates model::predict for the configuration's placement.
  /// Costs one profiled serial run on first touch of a key — measured at
  /// about 6x the plain serial simulation it observes (class S, all eight
  /// kernels: 0.12 s against 0.02 s in a Release build) — and microseconds
  /// afterwards.
  PredictionResult predict(npb::Benchmark b, const StudyConfig& cfg,
                           const RunOptions& opt, std::uint64_t seed);

  /// The memoized profile predict() uses (profiling on first touch, at the
  /// seed CellKey::from would give @p b) — exposed for drivers that
  /// evaluate the model directly.
  std::shared_ptr<const model::KernelProfile> profile(npb::Benchmark b,
                                                      const RunOptions& opt,
                                                      std::uint64_t seed);

  /// profile() that never waits: runs @p b's profiling on the calling
  /// thread on first touch of its key, and returns at once when a run for
  /// the key has started already, even one still going.  A driver calls it
  /// ahead of its predict cells, so that the pool profiles distinct kernels
  /// side by side and no predict cell waits for another worker's run.
  /// Returns false when the run it started failed; the key stays
  /// unmemoized, so the next request profiles again and meets the error.
  bool start_profile(npb::Benchmark b, const RunOptions& opt,
                     std::uint64_t seed);

  /// Scheduler-policy run on a pooled machine (run_scheduled).  Not
  /// memoized: policies are stateful objects the cache cannot key.
  ScheduledResult scheduled(const std::vector<npb::Benchmark>& benches,
                            const StudyConfig& cfg, sched::Scheduler& policy,
                            const RunOptions& opt, std::uint64_t seed);

  /// Per-step sampled run on a pooled machine (run_timeline).  Not memoized
  /// (the timeline is not part of the cell table).  Does not throw on
  /// verification failure; the caller inspects result.run.verified.
  TimelineResult timeline(npb::Benchmark b, const StudyConfig& cfg,
                          const RunOptions& opt, std::uint64_t seed);

  /// The engine's worker pool: a host-parallel index map over [0, n) on up
  /// to jobs() threads (inline on the caller's thread when jobs() is 1).
  /// run() dispatches its cells through it; drivers use it directly for
  /// cell lists of their own (serve jobs, scheduler-policy studies).
  /// @p fn must synchronise any shared mutable state itself; writing to
  /// distinct pre-sized slots per index is the intended pattern.  The first
  /// exception stops the remaining indices and is rethrown after the join.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] EngineStats stats() const;

 private:
  /// One enumerated cell of a plan plus what is needed to simulate it.
  struct Work {
    CellKey key;
    const StudyConfig* cfg = nullptr;
  };

  /// Invokes @p fn for every cell the plan requests (duplicates included).
  static void enumerate_cells(const ExperimentPlan& plan,
                              const std::function<void(const CellKey&,
                                                       const StudyConfig&)>& fn);

  /// A memoized profiling run: the profile and the host seconds it took.
  struct ProfileMemo {
    std::shared_ptr<const model::KernelProfile> profile;
    double host_sec = 0;
  };
  /// profile()'s memo lookup: profiles @p b on first touch of its key,
  /// else returns the memoized run, setting @p reused.  A run still going
  /// is waited for when @p wait is set; otherwise an empty memo returns.
  ProfileMemo memo_profile(npb::Benchmark b, const RunOptions& opt,
                           std::uint64_t seed, bool& reused, bool wait);

  MachinePool& pool_for(const sim::MachineParams& params);
  CellValue compute_cell(sim::Machine& machine, const CellKey& key,
                         const StudyConfig& cfg, const RunOptions& opt);
  /// Cache lookup + stats accounting; falls through to the attached store
  /// (admitting a store hit into the RAM cache); returns nullptr on miss.
  const CellValue* lookup(const CellKey& key);
  /// Inserts a freshly simulated cell (counts a miss) and writes it
  /// through to the attached store.
  const CellValue& memoize(const CellKey& key, CellValue value);

  int jobs_;
  std::shared_ptr<CellStore> store_;  ///< set_store; guarded by mu_
  mutable std::mutex mu_;  ///< guards cache_, pools_, hit/miss counters
  std::unordered_map<CellKey, CellValue, CellKeyHash> cache_;
  std::unordered_map<std::string, std::unique_ptr<MachinePool>> pools_;
  /// Memoized kernel profiles, keyed by (bench, class, scale, simulated
  /// seed, grain).  A key's future goes in when its profiling run starts,
  /// so a concurrent request for the key waits for that run instead of
  /// repeating it; a run that throws erases its key and hands the
  /// exception to its waiters.  Guarded by mu_; the profiles are immutable.
  std::unordered_map<std::string, std::shared_future<ProfileMemo>> profiles_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t store_hits_ = 0;
  std::uint64_t store_writes_ = 0;
};

}  // namespace paxsim::harness
