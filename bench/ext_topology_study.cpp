// bench/ext_topology_study.cpp — EXTENSION artifact: replays the paper's
// Figure-3/Table-2 speedup study across machine topologies.  The paper
// asks which architecture (SMT, CMP, SMP and their combinations) serves
// the NAS kernels best on ONE machine; this artifact asks how that answer
// shifts when the sharing structure changes — Paxville's private L2s vs.
// Woodcrest's chip-shared L2 vs. a 16-core NUMA box with an L3.
//
// For every topology in the study set (the built-in presets, plus the
// --machine= spec when given), the full Table-1 analogue generated by
// `harness::configs_for()` is run over the study benchmarks with serial
// baselines, and three things are reported per topology:
//
//   * the Figure-3 table (speedup over serial, benchmark x configuration)
//   * the Table-2 row (average speedup per configuration)
//   * the configuration ranking by average speedup, best first
//
// A schema_version'd JSON document (kind "topology_study") carrying the
// same data — plus each topology's fingerprint, so consumers can tie the
// rankings to an exact machine — is written to --out=FILE, or to stdout
// after the tables when --out is not given.
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

namespace {

/// Everything the report needs about one topology's study pass.
struct TopoResult {
  sim::Topology topo;
  std::vector<harness::StudyConfig> configs;       // parallel configs only
  std::vector<std::vector<double>> speedup;        // [benchmark][config]
  std::vector<double> avg;                         // Table-2 row
  std::vector<std::size_t> ranking;                // config indices, best first
};

TopoResult run_one(harness::ExperimentEngine& engine, bench::BenchOptions opt,
                   sim::Topology topo) {
  TopoResult r;
  r.topo = std::move(topo);
  opt.run.topology = std::make_shared<const sim::Topology>(r.topo);
  r.configs = bench::parallel_study_configs(opt);

  const auto study =
      engine.run(harness::ExperimentPlan(opt.run, r.configs)
                     .add_benchmarks(bench::study_benchmarks())
                     .with_serial_baselines());

  r.avg.assign(r.configs.size(), 0.0);
  for (const npb::Benchmark b : bench::study_benchmarks()) {
    std::vector<double> row;
    for (std::size_t ci = 0; ci < r.configs.size(); ++ci) {
      const double s = study.speedup_stats(b, ci).mean;
      row.push_back(s);
      r.avg[ci] += s;
    }
    r.speedup.push_back(std::move(row));
  }
  const auto nb = static_cast<double>(bench::study_benchmarks().size());
  for (double& v : r.avg) v /= nb;

  r.ranking.resize(r.configs.size());
  std::iota(r.ranking.begin(), r.ranking.end(), std::size_t{0});
  std::stable_sort(r.ranking.begin(), r.ranking.end(),
                   [&r](std::size_t a, std::size_t b) {
                     return r.avg[a] > r.avg[b];
                   });
  return r;
}

void print_one(const TopoResult& r, bool csv) {
  std::vector<std::string> cols;
  for (const harness::StudyConfig& c : r.configs) cols.emplace_back(c.name);
  harness::Table table(r.topo.name + " — speedup over serial", cols);
  std::size_t bi = 0;
  for (const npb::Benchmark b : bench::study_benchmarks()) {
    table.add_row(std::string(npb::benchmark_name(b)), r.speedup[bi++]);
  }
  table.add_row("avg", r.avg);
  table.print(std::cout);
  if (csv) table.print_csv(std::cout);

  std::printf("%s ranking:", r.topo.name.c_str());
  for (std::size_t i = 0; i < r.ranking.size(); ++i) {
    const std::size_t ci = r.ranking[i];
    std::printf("%s %s (%.2f)", i == 0 ? "" : " >",
                r.configs[ci].name.c_str(), r.avg[ci]);
  }
  std::printf("\n\n");
}

void write_json(std::ostream& os, const std::vector<TopoResult>& results,
                const bench::BenchOptions& opt) {
  report::Json j(os);
  j.begin_document("topology_study");
  j.field("class", npb::class_name(opt.run.cls));
  j.field("trials", opt.run.trials);
  j.field("machine_scale", opt.run.machine_scale);
  bench::write_host_provenance(j, opt);
  j.key("benchmarks").array();
  for (const npb::Benchmark b : bench::study_benchmarks()) {
    j.value(npb::benchmark_name(b));
  }
  j.end();
  j.key("topologies").array();
  for (const TopoResult& r : results) {
    j.object();
    j.field("name", r.topo.name);
    j.field("fingerprint", r.topo.fingerprint());
    j.field("packages", r.topo.packages);
    j.field("cores_per_package", r.topo.cores_per_package);
    j.field("smt_per_core", r.topo.smt_per_core);
    j.key("configs").array();
    for (const harness::StudyConfig& c : r.configs) j.value(c.name);
    j.end();
    j.key("speedup").array();  // rows follow the benchmarks list
    for (const std::vector<double>& row : r.speedup) {
      j.array();
      for (const double v : row) j.value(v);
      j.end();
    }
    j.end();
    j.key("avg_speedup").array();
    for (const double v : r.avg) j.value(v);
    j.end();
    j.key("ranking").array();  // config names, best average first
    for (const std::size_t ci : r.ranking) j.value(r.configs[ci].name);
    j.end();
    j.end();
  }
  j.end();
  j.finish();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassS;  // 3+ machines; keep runs short
  std::string out_path;
  cli::FlagSet fs = bench::make_bench_flags(opt);
  bench::add_trials_flag(fs, opt);
  cli::register_jobs_flag(fs, &opt.jobs);
  cli::register_store_flag(fs, &opt.store_dir);
  fs.add_string("out", &out_path, "FILE",
                "write the topology_study JSON to FILE (default: stdout)");
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  bench::print_study_header(
      "Extension: speedup study across machine topologies", opt);
  bench::print_host_provenance("ext_topology_study", opt);

  // The study set: every built-in preset, plus the --machine spec (if any)
  // as a custom fourth/fifth column.
  std::vector<sim::Topology> topologies;
  for (const std::string& p : sim::Topology::preset_names()) {
    topologies.push_back(*sim::Topology::from_preset(p));
  }
  if (opt.run.topology != nullptr) {
    bool known = false;
    for (const sim::Topology& t : topologies) {
      known = known || t.fingerprint() == opt.run.topology->fingerprint();
    }
    if (!known) topologies.push_back(*opt.run.topology);
  }

  harness::ExperimentEngine engine(opt.jobs);
  attach_store(engine, opt);
  std::vector<TopoResult> results;
  for (sim::Topology& t : topologies) {
    results.push_back(run_one(engine, opt, std::move(t)));
    print_one(results.back(), opt.csv);
  }

  // Cross-topology headline: which machine serves each benchmark best at
  // its own best configuration.
  {
    std::vector<std::string> cols;
    for (const TopoResult& r : results) cols.emplace_back(r.topo.name);
    harness::Table best("best speedup per machine (its best configuration)",
                        cols);
    std::size_t bi = 0;
    for (const npb::Benchmark b : bench::study_benchmarks()) {
      std::vector<double> row;
      for (const TopoResult& r : results) {
        double best_s = 0;
        for (const double v : r.speedup[bi]) best_s = std::max(best_s, v);
        row.push_back(best_s);
      }
      best.add_row(std::string(npb::benchmark_name(b)), row);
      ++bi;
    }
    best.print(std::cout);
    if (opt.csv) best.print_csv(std::cout);
  }

  if (out_path.empty()) {
    write_json(std::cout, results, opt);
  } else {
    std::ofstream f(out_path);
    if (!f) {
      std::fprintf(stderr, "cannot open --out file '%s'\n", out_path.c_str());
      return 1;
    }
    write_json(f, results, opt);
    std::printf("wrote %s\n", out_path.c_str());
  }
  bench::print_engine_stats(engine);
  return 0;
}
