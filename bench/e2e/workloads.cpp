// bench/e2e/workloads.cpp
//
// paxlint: allow-file(wallclock) -- host-time measurement of paxsim's public calls is this benchmark's purpose; no timing reaches simulated state
#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "paxsim.hpp"

namespace paxbench {

using namespace paxsim;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t fold_hashes(const std::vector<std::uint64_t>& hashes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const std::uint64_t v : hashes) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point now() { return std::chrono::steady_clock::now(); }

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(now() - t0).count();
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::uint64_t hash_run(const harness::RunResult& r) {
  std::vector<std::uint64_t> v{bits(r.wall_cycles), r.verified ? 1u : 0u};
  for (std::size_t e = 0; e < perf::kEventCount; ++e) {
    v.push_back(r.counters.get(static_cast<perf::Event>(e)));
  }
  return fold_hashes(v);
}

std::uint64_t hash_pair(const harness::PairResult& p) {
  return fold_hashes({hash_run(p.program[0]), hash_run(p.program[1])});
}

std::uint64_t hash_prediction(const model::Prediction& p) {
  return fold_hashes({bits(p.wall_cycles), bits(p.serial_wall_cycles),
                      bits(p.cycles), bits(p.instructions), bits(p.l1d_misses),
                      bits(p.l2_misses), bits(p.bus_reads),
                      bits(p.bus_prefetches)});
}

/// Simulator-side totals over every answer a round got.
struct Answers {
  double instructions = 0;
  double l1d_refs = 0;
  double l1d_misses = 0;
  double l2_misses = 0;
  double bus = 0;

  void add(const harness::RunResult& r) {
    using perf::Event;
    instructions += static_cast<double>(r.counters.get(Event::kInstructions));
    l1d_refs += static_cast<double>(r.counters.get(Event::kL1dReferences));
    l1d_misses += static_cast<double>(r.counters.get(Event::kL1dMisses));
    l2_misses += static_cast<double>(r.counters.get(Event::kL2Misses));
    bus += static_cast<double>(r.counters.get(Event::kBusTransactions));
  }
  void add(const harness::PairResult& p) {
    add(p.program[0]);
    add(p.program[1]);
  }
  /// @p answered: how many times the round answered each of these results.
  void put(Round& r, double answered) const {
    r.instructions += answered * instructions;
    r.put("sim.l1d_hit_frac", l1d_refs > 0 ? 1 - l1d_misses / l1d_refs : 0);
    r.put("sim.l2_miss_per_kinstr",
          instructions > 0 ? 1000 * l2_misses / instructions : 0);
    r.put("sim.bus_per_kinstr", instructions > 0 ? 1000 * bus / instructions : 0);
  }
};

void put_quantiles(Round& r, const std::string& stem,
                   const std::vector<double>& v) {
  r.put(stem + "_p50", quantile(v, 0.5));
  r.put(stem + "_p90", quantile(v, 0.9));
}

npb::ProblemClass class_for(const Settings& s, npb::ProblemClass full) {
  return s.smoke ? npb::ProblemClass::kClassS : full;
}

std::string store_dir(const Settings& s, const std::string& tag) {
  return (std::filesystem::path(s.scratch) /
          ("serve-" + std::to_string(::getpid()) + "-" + tag))
      .string();
}

const std::vector<npb::Benchmark>& suite() {
  static const std::vector<npb::Benchmark> v(std::begin(npb::kAllBenchmarks),
                                             std::end(npb::kAllBenchmarks));
  return v;
}

// ---- fig3-w / fig5-w: paper-figure plans on one engine ---------------------

/// One requested cell of a plan, in the engine's enumeration order.
struct PlanCell {
  enum class Kind { kSingle, kSerial, kPair } kind = Kind::kSingle;
  npb::Benchmark a{};
  npb::Benchmark b{};
  std::size_t config = 0;  ///< index into plan.configs() (not for kSerial)
  std::size_t pair = 0;    ///< index into plan.pairs() (kPair)
  int trial = 0;
};

/// Every cell @p plan requests, duplicates included, in the order
/// ExperimentEngine enumerates them: per trial, singles, pairs, then the
/// serial baseline of every benchmark the plan mentions.
std::vector<PlanCell> plan_cells(const harness::ExperimentPlan& plan) {
  std::vector<npb::Benchmark> mentioned;
  const auto mention = [&mentioned](npb::Benchmark b) {
    if (std::find(mentioned.begin(), mentioned.end(), b) == mentioned.end()) {
      mentioned.push_back(b);
    }
  };
  for (const npb::Benchmark b : plan.benchmarks()) mention(b);
  for (const auto& [a, b] : plan.pairs()) {
    mention(a);
    mention(b);
  }
  std::vector<PlanCell> cells;
  for (int t = 0; t < plan.options().trials; ++t) {
    for (const npb::Benchmark b : plan.benchmarks()) {
      for (std::size_t c = 0; c < plan.configs().size(); ++c) {
        cells.push_back({PlanCell::Kind::kSingle, b, b, c, 0, t});
      }
    }
    for (std::size_t p = 0; p < plan.pairs().size(); ++p) {
      for (std::size_t c = 0; c < plan.configs().size(); ++c) {
        cells.push_back({PlanCell::Kind::kPair, plan.pairs()[p].first,
                         plan.pairs()[p].second, c, p, t});
      }
    }
    if (plan.serial_baselines()) {
      for (const npb::Benchmark b : mentioned) {
        cells.push_back({PlanCell::Kind::kSerial, b, b, 0, 0, t});
      }
    }
  }
  return cells;
}

const char* call_name(PlanCell::Kind kind) {
  switch (kind) {
    case PlanCell::Kind::kSingle: return "engine.single";
    case PlanCell::Kind::kSerial: return "engine.serial";
    case PlanCell::Kind::kPair: return "engine.pair";
  }
  return "engine.single";
}

class PlanWorkload final : public Workload {
 public:
  /// @p figure3: Figures 2+3 (fig3-w); else Figures 4+5 (fig5-w).
  PlanWorkload(const Settings& s, bool figure3) : s_(s), figure3_(figure3) {}

  [[nodiscard]] std::string problem_class() const override {
    return std::string(npb::class_name(options().cls));
  }

  void setup(Round& into) override {
    (void)into;
    phases_ = figure3_ ? figure3_phases() : figure5_phases();
    requested_ = 0;
    for (const Phase& ph : phases_) requested_ += ph.cells.size();
    engine_ = std::make_unique<harness::ExperimentEngine>(kJobs);
  }

  Round round(Spans& spans) override {
    Round r;
    r.cells = requested_;
    Spans::Scope round_span(spans, "round", Layer::kBench);
    // Released after the round's wall time is taken, not in the next set-up.
    const std::unique_ptr<harness::ExperimentEngine> owned = std::move(engine_);
    const auto t0 = now();
    try {
      harness::ExperimentEngine& engine = *owned;
      Answers answers;
      double host_sim = 0;
      std::uint32_t cell_id = 0;
      for (std::size_t p = 0; p < phases_.size(); ++p) {
        const Phase& ph = phases_[p];
        const auto tp = now();
        Spans::Scope phase_span(spans, ph.name, Layer::kBench, round_span.id());
        if (spans.enabled()) {
          submit(engine, spans, ph, phase_span.id(), cell_id, p == 0 ? &r : nullptr);
        }
        harness::StudyResult study;
        {
          Spans::Scope run_span(spans, "engine.run", Layer::kHarness,
                                phase_span.id());
          study = engine.run(ph.plan);
        }
        r.put("harness.plan_s." + ph.name, since(tp));
        cell_id += static_cast<std::uint32_t>(ph.cells.size());
        for (const PlanCell& c : ph.cells) {
          if (c.kind == PlanCell::Kind::kPair) {
            const harness::PairResult& v = study.pair(c.pair, c.config, c.trial);
            r.hashes.push_back(hash_pair(v));
            answers.add(v);
            continue;
          }
          const harness::RunResult& v =
              c.kind == PlanCell::Kind::kSerial
                  ? study.serial(c.a, c.trial)
                  : study.single(c.a, c.config, c.trial);
          r.hashes.push_back(hash_run(v));
          answers.add(v);
          // The first phase simulates every cell it requests exactly once.
          if (p == 0) host_sim += v.host_sim_sec;
        }
        if (p == 0 && figure3_ && accuracy_.empty()) accuracy_ = accuracy(study);
      }
      r.wall_s = since(t0);
      const harness::EngineStats st = engine.stats();
      const auto simulated = static_cast<double>(st.cache_misses);
      const auto requested = static_cast<double>(requested_);
      r.put("sim.host_s", host_sim);
      r.put("harness.cells_requested", requested);
      r.put("harness.cells_simulated", simulated);
      r.put("harness.dedup_frac", 1 - simulated / requested);
      answers.put(r, 1);
    } catch (const std::exception& e) {
      r.wall_s = since(t0);
      r.failed = r.cells;
      r.hashes.assign(r.cells, 0);
      r.errors.emplace_back(e.what());
    }
    return r;
  }

  void report(std::ostream& os) const override { os << accuracy_; }

 private:
  struct Phase {
    std::string name;  ///< "fig3": also names harness.plan_s.<name>
    harness::ExperimentPlan plan;
    std::vector<PlanCell> cells;
  };

  [[nodiscard]] harness::RunOptions options() const {
    harness::RunOptions opt;
    opt.cls = class_for(s_, npb::ProblemClass::kClassW);
    opt.base_seed = s_.seed;
    return opt;
  }

  [[nodiscard]] static Phase phase(std::string name, harness::ExperimentPlan plan) {
    std::vector<PlanCell> cells = plan_cells(plan);
    return Phase{std::move(name), std::move(plan), std::move(cells)};
  }

  /// Figure 3 (= Table 2) then Figure 2, whose cells Figure 3 already
  /// simulated.  The six benchmarks of the paper's single-program study.
  [[nodiscard]] std::vector<Phase> figure3_phases() const {
    const std::vector<npb::Benchmark> study = {
        npb::Benchmark::kCG, npb::Benchmark::kMG, npb::Benchmark::kLU,
        npb::Benchmark::kFT, npb::Benchmark::kSP, npb::Benchmark::kBT};
    std::vector<Phase> v;
    v.push_back(phase("fig3", harness::ExperimentPlan(options(),
                                                      harness::parallel_configs())
                                  .add_benchmarks(study)
                                  .with_serial_baselines()));
    v.push_back(phase("fig2",
                      harness::ExperimentPlan(options(), harness::all_configs())
                          .add_benchmarks(study)
                          .trials(1)));
    return v;
  }

  /// Figure 5's cross-product then Figure 4, whose cells are a subset.
  [[nodiscard]] std::vector<Phase> figure5_phases() const {
    std::vector<harness::StudyConfig> full_load;
    for (const char* name : {"HT on -2-1", "HT off -2-1", "HT on -4-1",
                             "HT off -2-2", "HT on -4-2", "HT off -4-2",
                             "HT on -8-2"}) {
      full_load.push_back(*harness::find_config(name));
    }
    std::vector<Phase> v;
    v.push_back(phase("fig5", harness::ExperimentPlan(options(), full_load)
                                  .add_all_pairs(suite())
                                  .with_serial_baselines()
                                  .trials(1)));
    v.push_back(phase("fig4", harness::ExperimentPlan(options(),
                                                      harness::parallel_configs())
                                  .add_pair(npb::Benchmark::kCG, npb::Benchmark::kFT)
                                  .add_pair(npb::Benchmark::kFT, npb::Benchmark::kFT)
                                  .add_pair(npb::Benchmark::kCG, npb::Benchmark::kCG)
                                  .with_serial_baselines()
                                  .trials(1)));
    return v;
  }

  /// The traced submission: every distinct cell of @p ph through
  /// engine.for_each -> engine.single/serial/pair, one span per cell.
  /// @p stats receives the per-cell span quantiles (first phase only).
  void submit(harness::ExperimentEngine& engine, Spans& spans, const Phase& ph,
              std::uint32_t parent, std::uint32_t first_cell, Round* stats) const {
    const harness::RunOptions& opt = ph.plan.options();
    std::vector<std::size_t> distinct;
    std::unordered_set<harness::CellKey, harness::CellKeyHash> seen;
    for (std::size_t i = 0; i < ph.cells.size(); ++i) {
      const PlanCell& c = ph.cells[i];
      const std::uint64_t seed = opt.trial_seed(c.trial);
      const harness::StudyConfig& cfg = c.kind == PlanCell::Kind::kSerial
                                            ? harness::serial_config()
                                            : ph.plan.configs()[c.config];
      const auto kind = c.kind == PlanCell::Kind::kPair
                            ? harness::CellKey::Kind::kPair
                            : harness::CellKey::Kind::kSingle;
      if (seen.insert(harness::CellKey::from(kind, c.a, c.b, cfg, opt, seed))
              .second) {
        distinct.push_back(i);
      }
    }
    std::uint32_t for_each_id = 0;
    {
      Spans::Scope fe(spans, "engine.for_each", Layer::kHarness, parent);
      for_each_id = fe.id();
      engine.for_each(distinct.size(), [&](std::size_t q) {
        const std::size_t i = distinct[q];
        const PlanCell& c = ph.cells[i];
        const std::uint64_t seed = opt.trial_seed(c.trial);
        const Spans::Scope cell(spans, call_name(c.kind), Layer::kHarness,
                                fe.id(),
                                first_cell + static_cast<std::uint32_t>(i) + 1);
        switch (c.kind) {
          case PlanCell::Kind::kSingle:
            engine.single(c.a, ph.plan.configs()[c.config], opt, seed);
            break;
          case PlanCell::Kind::kSerial:
            engine.serial(c.a, opt, seed);
            break;
          case PlanCell::Kind::kPair:
            engine.pair(c.a, c.b, ph.plan.configs()[c.config], opt, seed);
            break;
        }
      });
    }
    if (stats == nullptr) return;
    const std::vector<double> d = spans.child_durations(for_each_id);
    double busy = 0;
    for (const double x : d) busy += x;
    put_quantiles(*stats, "harness.cell_s", d);
    stats->put("harness.cell_n", static_cast<double>(d.size()));
    stats->put("harness.worker_busy_frac",
               busy / (kJobs * spans.duration(for_each_id)));
  }

  /// Table 2 next to the paper values that survive in EXPERIMENTS.md.
  [[nodiscard]] static std::string accuracy(const harness::StudyResult& study) {
    const harness::ExperimentPlan& plan = study.plan();
    const auto& configs = plan.configs();
    std::vector<double> avg(configs.size(), 0.0);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      for (const npb::Benchmark b : plan.benchmarks()) {
        avg[i] += study.speedup_stats(b, i).mean;
      }
      avg[i] /= static_cast<double>(plan.benchmarks().size());
    }
    const auto at = [&](const char* name) {
      return static_cast<std::size_t>(harness::find_config_index(configs, name));
    };
    const std::size_t cmt = at("HT on -4-1");
    const std::size_t cmp_smp = at("HT off -4-2");
    const std::size_t cmt_smp = at("HT on -8-2");
    const double cpi_ratio =
        study.single(npb::Benchmark::kCG, cmt_smp).metrics.cpi /
        study.single(npb::Benchmark::kCG, cmp_smp).metrics.cpi;
    const double cmt_delta = 100 * (avg[cmt] / avg[cmp_smp] - 1);
    const double ht_delta = 100 * (avg[cmt_smp] / avg[cmp_smp] - 1);

    std::ostringstream os;
    char buf[160];
    os << "table 2 (class " << npb::class_name(plan.options().cls) << ", "
       << plan.options().trials << " trials), average speedup:";
    for (std::size_t i = 0; i < configs.size(); ++i) {
      std::snprintf(buf, sizeof buf, " %s %.2f",
                    std::string(harness::architecture_name(configs[i].arch)).c_str(),
                    avg[i]);
      os << buf;
    }
    os << '\n';
    std::snprintf(buf, sizeof buf,
                  "accuracy: CG CPI ratio HT on -8-2 / HT off -4-2: %.3f, "
                  "paper 1.75, error %+.1f%%\n",
                  cpi_ratio, 100 * (cpi_ratio / 1.75 - 1));
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "accuracy: CMT vs CMP-based SMP: %+.1f%%, paper -3.6%%, "
                  "error %+.1f points\n",
                  cmt_delta, cmt_delta + 3.6);
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "accuracy: HT on vs off on both chips (CMT- vs CMP-based "
                  "SMP): %+.1f%%, paper -6.7%%, error %+.1f points\n",
                  ht_delta, ht_delta + 6.7);
    os << buf;
    os << "accuracy: informational, not gated; the model is otherwise "
          "unvalidated because the paper's other numerals were stripped\n";
    return os.str();
  }

  Settings s_;
  bool figure3_;
  std::vector<Phase> phases_;
  std::uint64_t requested_ = 0;
  std::unique_ptr<harness::ExperimentEngine> engine_;  ///< fresh per set-up
  std::string accuracy_;
};

// ---- hotpath-b1: the core fast path ------------------------------------------

class HotpathWorkload final : public Workload {
 public:
  explicit HotpathWorkload(const Settings& s) {
    opt_.cls = class_for(s, npb::ProblemClass::kClassB);
    opt_.machine_scale = 1;
    opt_.base_seed = s.seed;
  }

  [[nodiscard]] std::string problem_class() const override {
    return std::string(npb::class_name(opt_.cls));
  }

  void setup(Round& into) override {
    pool_ = std::make_unique<harness::MachinePool>(opt_.machine_params());
    const auto t0 = now();
    lease_.emplace(pool_->acquire());
    into.put("sim.machine_build_s", since(t0));
  }

  Round round(Spans& spans) override {
    Round r;
    r.cells = suite().size();
    Spans::Scope round_span(spans, "round", Layer::kBench);
    Answers answers;
    double host_sim = 0;
    double setup_verify = 0;
    const auto t0 = now();
    for (std::size_t i = 0; i < suite().size(); ++i) {
      const npb::Benchmark b = suite()[i];
      const std::string name(npb::benchmark_name(b));
      const auto tc = now();
      harness::RunResult res;
      try {
        const Spans::Scope s(spans, "run_single", Layer::kSim, round_span.id(),
                             static_cast<std::uint32_t>(i + 1));
        res = run(**lease_, b);
      } catch (const std::exception& e) {
        ++r.failed;
        r.hashes.push_back(0);
        r.errors.emplace_back(e.what());
        continue;
      }
      setup_verify += since(tc) - res.host_sim_sec;
      host_sim += res.host_sim_sec;
      r.hashes.push_back(hash_run(res));
      answers.add(res);
      r.put("sim.mips." + name,
            static_cast<double>(res.counters.get(perf::Event::kInstructions)) /
                res.host_sim_sec / 1e6);
    }
    r.wall_s = since(t0);
    // Released after the round's wall time is taken, not in the next set-up.
    lease_.reset();
    pool_.reset();
    r.put("sim.host_s", host_sim);
    r.put("npb.setup_verify_s", setup_verify);
    answers.put(r, 1);
    return r;
  }

  /// Each kernel on the fast path and on the reference path, back to back:
  /// the two must agree on every counter and wall cycle; the host-time
  /// ratio is the fast path's speedup.
  void extras(Spans& spans, Round& into) override {
    harness::MachinePool fast_pool(opt_.machine_params());
    harness::MachinePool::Lease fast_machine = fast_pool.acquire();
    sim::MachineParams ref_params = opt_.machine_params();
    ref_params.fast_path = false;
    harness::MachinePool ref_pool(ref_params);
    harness::MachinePool::Lease ref = ref_pool.acquire();
    const Spans::Scope check(spans, "fastpath_check", Layer::kBench);
    for (std::size_t i = 0; i < suite().size(); ++i) {
      const npb::Benchmark b = suite()[i];
      const std::string name(npb::benchmark_name(b));
      const auto cell = static_cast<std::uint32_t>(i + 1);
      ++into.cells;
      try {
        harness::RunResult fast;
        harness::RunResult slow;
        {
          const Spans::Scope s(spans, "run_single", Layer::kSim, check.id(), cell);
          fast = run(*fast_machine, b);
        }
        {
          const Spans::Scope s(spans, "run_single.reference", Layer::kSim,
                               check.id(), cell);
          slow = run(*ref, b);
        }
        if (fast.counters != slow.counters ||
            fast.wall_cycles != slow.wall_cycles) {
          ++into.failed;
          into.errors.push_back(name + ": fast and reference paths diverge");
        }
        into.put("sim.fastpath_speedup." + name,
                 slow.host_sim_sec / fast.host_sim_sec);
      } catch (const std::exception& e) {
        ++into.failed;
        into.errors.emplace_back(e.what());
      }
    }
  }

 private:
  harness::RunResult run(sim::Machine& machine, npb::Benchmark b) const {
    return harness::run_single(machine, b, harness::serial_config(), opt_,
                               opt_.trial_seed(0));
  }

  harness::RunOptions opt_;
  std::unique_ptr<harness::MachinePool> pool_;        ///< per set-up
  std::optional<harness::MachinePool::Lease> lease_;  ///< of *pool_
};

// ---- serve-s: the sweep service and its store --------------------------------

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Settings& s) : s_(s) {
    // Every kernel x every configuration of two machines x {simulate,
    // predict}, plus six pairs: Figure 4's three and three covering the
    // remaining kernels.
    job_text_ =
        "{\"schema_version\":1,\"kind\":\"job_file\","
        "\"defaults\":{\"class\":\"S\",\"trials\":1,\"seed\":" +
        std::to_string(s.seed) +
        "},\"sweeps\":["
        "{\"benches\":\"all\",\"machines\":[\"default\",\"woodcrest\"],"
        "\"configs\":\"all\",\"modes\":[\"single\",\"predict\"]},"
        "{\"machines\":[\"default\",\"woodcrest\"],\"configs\":\"all\","
        "\"modes\":[\"pair\"],\"pairs\":[[\"CG\",\"FT\"],[\"FT\",\"FT\"],"
        "[\"CG\",\"CG\"],[\"MG\",\"SP\"],[\"IS\",\"EP\"],[\"BT\",\"LU\"]]}]}";
  }

  [[nodiscard]] std::string problem_class() const override { return "S"; }

  /// The job parse and a fresh, empty store for the next round.
  void setup(Round& into) override {
    const auto t0 = now();
    serve::JobPlan plan;
    std::string error;
    if (!serve::parse_job_file(job_text_, &plan, &error)) {
      throw std::runtime_error("serve-s job file rejected: " + error);
    }
    into.put("serve.parse_s", since(t0));
    plan_ = std::move(plan);
    dir_ = store_dir(s_, std::to_string(rounds_++));
    std::filesystem::remove_all(dir_);
    const serve::ResultStore store(dir_);
  }

  Round round(Spans& spans) override {
    Round r;
    const std::size_t total = plan_.cells.size();
    r.cells = 2 * total;  // answered by the cold pass, then the warm pass
    Spans::Scope round_span(spans, "round", Layer::kBench);
    const std::string& dir = dir_;
    serve::ServeOptions so;
    so.jobs = kJobs;
    so.progress = false;

    const auto t0 = now();
    serve::ServeSummary cold;
    serve::ServeSummary warm;
    {
      const Spans::Scope s(spans, "serve_cells.cold", Layer::kServe, round_span.id());
      cold = serve::serve_cells(plan_, dir, so, nullptr);
    }
    const double cold_s = since(t0);
    {
      const Spans::Scope s(spans, "serve_cells.warm", Layer::kServe, round_span.id());
      warm = serve::serve_cells(plan_, dir, so, nullptr);
    }
    const double warm_s = since(t0) - cold_s;

    // Read every entry back; round 0's values also feed extras().
    const bool keep = values_.empty();
    if (keep) {
      values_.resize(total);
      predictions_.resize(total);
    }
    Answers answers;
    std::vector<double> load_us;
    std::uint64_t missing = 0;
    serve::ResultStore store(dir);
    {
      const Spans::Scope readback(spans, "readback", Layer::kBench, round_span.id());
      for (std::size_t i = 0; i < total; ++i) {
        const serve::JobCell& cell = plan_.cells[i];
        const bool predict = cell.key.kind == harness::CellKey::Kind::kPredict;
        harness::CellValue v;
        model::Prediction p;
        const auto tl = now();
        bool ok = false;
        {
          const Spans::Scope s(spans, predict ? "load_prediction" : "load_cell",
                               Layer::kStore, readback.id(),
                               static_cast<std::uint32_t>(i + 1));
          ok = predict ? store.load_prediction(cell.key, &p)
                       : store.load_cell(cell.key, &v);
        }
        load_us.push_back(since(tl) * 1e6);
        if (!ok) {
          ++missing;
          r.hashes.push_back(0);
          continue;
        }
        if (predict) {
          r.hashes.push_back(hash_prediction(p));
        } else if (cell.key.kind == harness::CellKey::Kind::kPair) {
          r.hashes.push_back(hash_pair(v.pair));
          answers.add(v.pair);
        } else {
          r.hashes.push_back(hash_run(v.single));
          answers.add(v.single);
        }
        if (keep) {
          values_[i] = v;
          predictions_[i] = p;
        }
      }
    }
    r.wall_s = since(t0);

    if (warm.computed != 0) {
      r.errors.push_back("warm pass computed " + std::to_string(warm.computed) +
                         " cells");
    }
    if (missing != 0) {
      r.errors.push_back(std::to_string(missing) + " entries missing on read-back");
    }
    r.failed = std::min<std::uint64_t>(
        r.cells, cold.failures + warm.failures + warm.computed + missing);
    r.put("serve.cold_pass_s", cold_s);
    r.put("serve.warm_pass_s", warm_s);
    put_quantiles(r, "serve.store_load_us", load_us);
    r.put("serve.store_bytes", static_cast<double>(store.scan().bytes));
    answers.put(r, 2);
    std::filesystem::remove_all(dir);
    return r;
  }

  /// The first machine of each geometry the job names, the model alone
  /// (profile each kernel per machine, evaluate every prediction cell) and
  /// the store's write path alone (round 0's values into a scratch store).
  void extras(Spans& spans, Round& into) override {
    double build = 0;
    std::vector<std::string> machines;
    for (const serve::JobCell& cell : plan_.cells) {
      if (std::find(machines.begin(), machines.end(), cell.machine) !=
          machines.end()) {
        continue;
      }
      machines.push_back(cell.machine);
      harness::MachinePool pool(cell.opt.machine_params());
      const Spans::Scope s(spans, "MachinePool.acquire", Layer::kSim);
      const auto t0 = now();
      const harness::MachinePool::Lease lease = pool.acquire();
      build += since(t0);
    }
    into.put("sim.machine_build_s", build);

    harness::ExperimentEngine engine(1);
    double profile_s = 0;
    std::vector<double> predict_us;
    {
      const Spans::Scope model(spans, "model", Layer::kBench);
      std::vector<std::pair<npb::Benchmark, std::string>> profiled;
      for (std::size_t i = 0; i < plan_.cells.size(); ++i) {
        const serve::JobCell& cell = plan_.cells[i];
        if (cell.key.kind != harness::CellKey::Kind::kPredict) continue;
        const auto cell_id = static_cast<std::uint32_t>(i + 1);
        const std::pair<npb::Benchmark, std::string> km{cell.key.a, cell.machine};
        if (std::find(profiled.begin(), profiled.end(), km) == profiled.end()) {
          profiled.push_back(km);
          const auto t0 = now();
          const Spans::Scope s(spans, "engine.profile", Layer::kModel, model.id(),
                               cell_id);
          (void)engine.profile(cell.key.a, cell.opt, cell.seed);
          profile_s += since(t0);
        }
        const Spans::Scope s(spans, "engine.predict", Layer::kModel, model.id(),
                             cell_id);
        const harness::PredictionResult pr =
            engine.predict(cell.key.a, cell.cfg, cell.opt, cell.seed);
        predict_us.push_back(pr.predict_host_sec * 1e6);
        ++into.cells;
        if (hash_prediction(pr.prediction) !=
            hash_prediction(predictions_[i])) {
          ++into.failed;
          into.errors.push_back("prediction " + std::to_string(i) +
                                " differs from its stored entry");
        }
      }
    }
    into.put("model.profile_s", profile_s);
    into.put("model.predict_us_p50", quantile(predict_us, 0.5));

    const std::string dir = store_dir(s_, "writes");
    std::filesystem::remove_all(dir);
    std::vector<double> write_us;
    {
      serve::ResultStore store(dir);
      const Spans::Scope writes(spans, "store_writes", Layer::kBench);
      for (std::size_t i = 0; i < plan_.cells.size(); ++i) {
        const serve::JobCell& cell = plan_.cells[i];
        const bool predict = cell.key.kind == harness::CellKey::Kind::kPredict;
        const auto t0 = now();
        const Spans::Scope s(spans, predict ? "store_prediction" : "store_cell",
                             Layer::kStore, writes.id(),
                             static_cast<std::uint32_t>(i + 1));
        if (predict) {
          store.store_prediction(cell.key, predictions_[i]);
        } else {
          store.store_cell(cell.key, values_[i]);
        }
        write_us.push_back(since(t0) * 1e6);
      }
    }
    std::filesystem::remove_all(dir);
    put_quantiles(into, "serve.store_write_us", write_us);
  }

 private:
  Settings s_;
  std::string job_text_;
  serve::JobPlan plan_;
  std::string dir_;  ///< the next round's store
  int rounds_ = 0;
  std::vector<harness::CellValue> values_;        ///< round 0's read-back
  std::vector<model::Prediction> predictions_;    ///< round 0's read-back
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig3-w", "fig5-w",
                                                 "hotpath-b1", "serve-s"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Settings& s) {
  if (s.workload == "fig3-w") return std::make_unique<PlanWorkload>(s, true);
  if (s.workload == "fig5-w") return std::make_unique<PlanWorkload>(s, false);
  if (s.workload == "hotpath-b1") return std::make_unique<HotpathWorkload>(s);
  if (s.workload == "serve-s") return std::make_unique<ServeWorkload>(s);
  return nullptr;
}

}  // namespace paxbench
