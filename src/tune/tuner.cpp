// paxsim/tune/tuner.cpp
#include "tune/tuner.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "report/json.hpp"

namespace paxsim::tune {

namespace {

/// Builds the RunOptions of one search point: the base options with the
/// point's schedule, grain and scale substituted in.
harness::RunOptions options_for(const SearchSpace& space, const Point& p,
                                const harness::RunOptions& base) {
  harness::RunOptions opt = base;
  opt.sched_kind = space.sched_kinds[p.sched];
  opt.sched_chunk = space.chunks[p.chunk];
  opt.grain = space.grains[p.grain];
  opt.machine_scale = space.scales[p.scale];
  return opt;
}

/// @p axis, or the single point @p base when the caller left it empty.
template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, T base) {
  return axis.empty() ? std::vector<T>{base} : axis;
}

/// Model-tier evaluator over the engine: each distinct point costs one
/// ExperimentEngine::predict (microseconds after the memoized profiling
/// run); revisits are answered from a local memo.
class EngineEvaluator final : public Evaluator {
 public:
  EngineEvaluator(harness::ExperimentEngine& engine, npb::Benchmark bench,
                  const SearchSpace& space, const harness::RunOptions& base,
                  std::uint64_t seed)
      : engine_(engine), bench_(bench), space_(space), base_(base),
        seed_(seed) {}

  double predicted_wall(const Point& p) override {
    const std::size_t flat = space_.to_flat(p);
    const auto it = memo_.find(flat);
    if (it != memo_.end()) return it->second;
    const harness::RunOptions opt = options_for(space_, p, base_);
    const harness::StudyConfig& cfg = space_.configs[p.config];
    const double wall =
        engine_.predict(bench_, cfg, opt, seed_).prediction.wall_cycles;
    memo_.emplace(flat, wall);
    return wall;
  }

  [[nodiscard]] std::size_t distinct_evaluations() const {
    return memo_.size();
  }

 private:
  harness::ExperimentEngine& engine_;
  npb::Benchmark bench_;
  const SearchSpace& space_;
  const harness::RunOptions& base_;
  std::uint64_t seed_;
  std::unordered_map<std::size_t, double> memo_;
};

}  // namespace

TuneReport tune(harness::ExperimentEngine& engine,
                const std::vector<npb::Benchmark>& benches,
                const harness::RunOptions& base_opt,
                const std::string& machine_spec, const TuneOptions& topt) {
  std::unique_ptr<Strategy> strategy =
      make_strategy(topt.strategy, topt.anneal_budget);
  if (strategy == nullptr) {
    throw std::invalid_argument("unknown strategy '" + topt.strategy +
                                "' (use grid, greedy or anneal)");
  }
  if (topt.top_k < 1) throw std::invalid_argument("top_k must be >= 1");

  // The search space is per-machine: the configuration axis is the
  // machine's own Table-1 row set (Serial included — the tuner is not told
  // that parallel wins; it has to find out).
  SearchSpace space;
  space.configs = harness::configs_for(base_opt.resolved_topology());
  space.sched_kinds = axis_or(topt.sched_kinds, base_opt.sched_kind);
  space.chunks = axis_or(topt.chunks, base_opt.sched_chunk);
  space.grains = axis_or(topt.grains, base_opt.grain);
  space.scales = axis_or(topt.scales, base_opt.machine_scale);
  space.validate();

  TuneReport report;
  report.strategy = std::string(strategy->name());
  report.top_k = topt.top_k;
  report.seed = base_opt.base_seed;
  report.machine = machine_spec;
  report.problem_class = npb::class_name(base_opt.cls)[0];

  for (const npb::Benchmark bench : benches) {
    const std::uint64_t seed = base_opt.trial_seed(0);
    KernelResult kr;
    kr.bench = bench;
    kr.machine = machine_spec;
    kr.space_cells = space.distinct_cells();

    // ---- explore: model tier only --------------------------------------
    EngineEvaluator eval(engine, bench, space, base_opt, seed);
    const std::vector<Point> explored =
        strategy->explore(space, eval, base_opt.base_seed);
    kr.explored = explored.size();
    kr.model_cells = eval.distinct_evaluations();
    kr.trajectory.reserve(explored.size());
    for (const Point& p : explored) {
      kr.trajectory.push_back(
          {p, space.describe(p), eval.predicted_wall(p)});
    }

    // ---- rank the frontier by the model's opinion -----------------------
    std::vector<std::size_t> order(explored.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return eval.predicted_wall(explored[a]) <
                              eval.predicted_wall(explored[b]);
                     });
    const std::size_t k =
        strategy->exhaustive()
            ? explored.size()
            : std::min<std::size_t>(static_cast<std::size_t>(topt.top_k),
                                    explored.size());

    // ---- validate: simulator tier on the top of the ranking -------------
    const std::uint64_t misses_before = engine.stats().cache_misses;
    for (std::size_t rank = 0; rank < k; ++rank) {
      const Point& p = explored[order[rank]];
      const harness::RunOptions opt = options_for(space, p, base_opt);
      const harness::StudyConfig& cfg = space.configs[p.config];
      const harness::RunResult run = engine.single(bench, cfg, opt, seed);
      // The serial anchor of this point's profile (already memoized by the
      // explore phase) is the speedup denominator — no extra serial cell.
      const double anchor =
          engine.profile(bench, opt, seed)->anchor.wall_cycles;
      Validated v;
      v.point = p;
      v.label = space.describe(p);
      v.config_name = cfg.name;
      v.model_rank = rank;
      v.predicted_wall = eval.predicted_wall(p);
      v.sim_wall = run.wall_cycles;
      v.sim_speedup = run.wall_cycles > 0 ? anchor / run.wall_cycles : 0;
      kr.validated.push_back(std::move(v));
    }
    kr.sim_cells = engine.stats().cache_misses - misses_before;

    // ---- crown by measured wall (ties keep the model's order) -----------
    std::size_t best = 0;
    for (std::size_t i = 1; i < kr.validated.size(); ++i) {
      if (kr.validated[i].sim_wall < kr.validated[best].sim_wall) best = i;
    }
    kr.best = kr.validated[best];
    kr.model_agrees = kr.best.model_rank == 0;
    report.kernels.push_back(std::move(kr));
  }

  report.stats = engine.stats();
  return report;
}

namespace {

void write_validated(report::Json& j, const Validated& v) {
  j.object();
  j.field("config", v.config_name);
  j.field("label", v.label);
  j.field("model_rank", static_cast<std::uint64_t>(v.model_rank));
  j.field("predicted_wall_cycles", v.predicted_wall);
  j.field("sim_wall_cycles", v.sim_wall);
  j.field("sim_speedup", v.sim_speedup);
  j.end();
}

}  // namespace

void write_tuning_report(std::ostream& out, const TuneReport& report) {
  report::Json j(out);
  j.begin_document("tuning_report");
  j.field("strategy", report.strategy);
  j.field("top_k", report.top_k);
  j.field("seed", report.seed);
  j.field("machine", report.machine.empty() ? std::string("default")
                                            : report.machine);
  j.field("class", std::string(1, report.problem_class));
  j.key("kernels").array();
  for (const KernelResult& kr : report.kernels) {
    j.object();
    j.field("bench", npb::benchmark_name(kr.bench));
    j.field("machine",
            kr.machine.empty() ? std::string("default") : kr.machine);
    j.field("space_cells", static_cast<std::uint64_t>(kr.space_cells));
    j.field("explored", static_cast<std::uint64_t>(kr.explored));
    j.field("model_cells", static_cast<std::uint64_t>(kr.model_cells));
    j.field("sim_cells", static_cast<std::uint64_t>(kr.sim_cells));
    j.field("model_agrees", kr.model_agrees);
    j.key("best");
    write_validated(j, kr.best);
    j.key("validated").array();
    for (const Validated& v : kr.validated) write_validated(j, v);
    j.end();
    j.key("trajectory").array();
    for (const TrajectoryStep& t : kr.trajectory) {
      j.object();
      j.field("label", t.label);
      j.field("predicted_wall_cycles", t.predicted_wall);
      j.end();
    }
    j.end();
    j.end();
  }
  j.end();
  j.key("engine").object();
  j.field("cache_hits", report.stats.cache_hits);
  j.field("cache_misses", report.stats.cache_misses);
  j.field("store_hits", report.stats.store_hits);
  j.field("store_writes", report.stats.store_writes);
  j.field("machines_created", report.stats.machines_created);
  j.field("machines_acquired", report.stats.machines_acquired);
  j.end();
  j.finish();
}

}  // namespace paxsim::tune
