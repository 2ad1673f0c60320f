// bench/model_accuracy.cpp — cross-validation artifact for the analytical
// predictor: every NPB kernel on the Serial, CMP-based SMP and CMT-based SMP
// rows (Serial, HT off -4-2, HT on -8-2 on Paxville), predicted and
// simulated side by side, with per-cell relative errors, the aggregate
// wall-time advantage of the analytical tier, and one JSON line per cell for
// trend tracking.
//
// On class S (the calibrated study) the binary also enforces the
// CALIBRATION.md error bands and exits non-zero when any cell breaches them,
// so CI can gate on prediction accuracy without a separate harness.  The
// bands are measured on Paxville's rows, so a machine lacking any of the
// three is refused (exit 2).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_common.hpp"
#include "paxsim.hpp"

using namespace paxsim;

namespace {

// CALIBRATION.md bands ("Analytical model error bands", class S).
constexpr double kSpeedupBand = 0.40;
constexpr double kCpiBand = 0.25;
constexpr double kL2HitBand = 0.35;

double rel_err(double predicted, double simulated) {
  return simulated == 0.0 ? 0.0 : (predicted - simulated) / simulated;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  const cli::FlagSet fs = bench::make_bench_flags(opt);
  if (const auto rc = bench::parse_args(argc, argv, fs)) return *rc;
  const auto rows = harness::configs_for(opt.run.resolved_topology());
  const harness::StudyConfig* configs[] = {
      bench::find_arch(rows, harness::Architecture::kSerial),
      bench::find_arch(rows, harness::Architecture::kCmpSmp),
      bench::find_arch(rows, harness::Architecture::kCmtSmp)};
  if (std::find(std::begin(configs), std::end(configs), nullptr) !=
      std::end(configs)) {
    std::fprintf(stderr,
                 "error: model_accuracy needs the Serial, CMP-based SMP and "
                 "CMT-based SMP rows, which machine '%s' lacks (its error "
                 "bands are measured on paxville only)\n",
                 opt.run.resolved_topology().name.c_str());
    return 2;
  }
  bench::print_study_header(
      "model accuracy: analytical prediction vs simulation", opt);
  bench::print_host_provenance("model_accuracy", opt);

  const bool class_s = opt.run.cls == npb::ProblemClass::kClassS;
  const std::vector<std::string> cols = {"sim off", "pred off", "err off",
                                         "sim on",  "pred on",  "err on"};

  harness::ExperimentEngine engine(opt.jobs);
  attach_store(engine, opt);
  harness::Table speedup_t("speedup — simulated vs predicted", cols);
  harness::Table cpi_t("CPI — simulated vs predicted", cols);
  harness::Table l2_t("L2 hit rate — simulated vs predicted", cols);

  const std::uint64_t seed = opt.run.trial_seed(0);
  double sim_host_sec = 0, predict_host_sec = 0, profile_host_sec = 0;
  double max_speedup_err = 0, max_cpi_err = 0, max_l2_err = 0;
  int breaches = 0;

  for (const npb::Benchmark b : npb::kAllBenchmarks) {
    const std::string bn(npb::benchmark_name(b));
    const harness::RunResult serial = engine.serial(b, opt.run, seed);
    sim_host_sec += serial.host_sim_sec;

    std::vector<double> sp_row, cpi_row, l2_row;
    for (const harness::StudyConfig* cfg : configs) {
      const bool is_serial = cfg->is_serial();
      const harness::RunResult sim =
          is_serial ? serial : engine.single(b, *cfg, opt.run, seed);
      if (!is_serial) sim_host_sec += sim.host_sim_sec;
      const harness::PredictionResult pr =
          engine.predict(b, *cfg, opt.run, seed);
      predict_host_sec += pr.predict_host_sec;
      profile_host_sec += pr.profile_host_sec;
      const model::Prediction& p = pr.prediction;

      const double sim_speedup = serial.wall_cycles / sim.wall_cycles;
      const double e_sp = rel_err(p.speedup, sim_speedup);
      const double e_cpi = rel_err(p.metrics.cpi, sim.metrics.cpi);
      const double e_l2 = rel_err(1.0 - p.metrics.l2_miss_rate,
                                  1.0 - sim.metrics.l2_miss_rate);
      if (!is_serial) {
        sp_row.insert(sp_row.end(), {sim_speedup, p.speedup, e_sp});
        cpi_row.insert(cpi_row.end(),
                       {sim.metrics.cpi, p.metrics.cpi, e_cpi});
        l2_row.insert(l2_row.end(), {1.0 - sim.metrics.l2_miss_rate,
                                     1.0 - p.metrics.l2_miss_rate, e_l2});
        max_speedup_err = std::max(max_speedup_err, std::abs(e_sp));
        max_cpi_err = std::max(max_cpi_err, std::abs(e_cpi));
        max_l2_err = std::max(max_l2_err, std::abs(e_l2));
        if (class_s && (std::abs(e_sp) > kSpeedupBand ||
                        std::abs(e_cpi) > kCpiBand ||
                        std::abs(e_l2) > kL2HitBand)) {
          ++breaches;
          std::fprintf(stderr,
                       "BAND BREACH: %s on '%s' (speedup %+.3f, cpi %+.3f, "
                       "l2 hit %+.3f)\n",
                       bn.c_str(), cfg->name.c_str(), e_sp, e_cpi, e_l2);
        }
      }

      report::Json j(std::cout);
      j.object();
      j.field("artifact", "model_accuracy");
      j.field("bench", bn);
      j.field("config", cfg->name);
      j.field("sim_speedup", sim_speedup);
      j.field("pred_speedup", p.speedup);
      j.field("sim_cpi", sim.metrics.cpi);
      j.field("pred_cpi", p.metrics.cpi);
      j.field("sim_l2_hit", 1.0 - sim.metrics.l2_miss_rate);
      j.field("pred_l2_hit", 1.0 - p.metrics.l2_miss_rate);
      j.field("speedup_err", e_sp);
      j.field("cpi_err", e_cpi);
      j.field("l2_hit_err", e_l2);
      j.field("sim_host_sec", sim.host_sim_sec);
      j.field("predict_host_sec", pr.predict_host_sec);
      j.finish();
    }
    speedup_t.add_row(bn, sp_row);
    cpi_t.add_row(bn, cpi_row);
    l2_t.add_row(bn, l2_row);
  }

  std::printf("\n(Serial rows omitted from the tables: the anchored model "
              "reproduces the profiled serial run by construction.)\n");
  speedup_t.print(std::cout, 4);
  cpi_t.print(std::cout, 4);
  l2_t.print(std::cout, 4);
  if (opt.csv) {
    speedup_t.print_csv(std::cout);
    cpi_t.print_csv(std::cout);
    l2_t.print_csv(std::cout);
  }

  const double advantage =
      predict_host_sec > 0 ? sim_host_sec / predict_host_sec : 0.0;
  std::printf(
      "host time: %.3fs simulated, %.3fs profiling (one serial run per "
      "kernel, amortised), %.6fs analytical evaluation — %.0fx faster per "
      "configuration question\n",
      sim_host_sec, profile_host_sec, predict_host_sec, advantage);
  report::Json summary(std::cout);
  summary.object();
  summary.field("artifact", "model_accuracy_summary");
  summary.field("max_speedup_err", max_speedup_err);
  summary.field("max_cpi_err", max_cpi_err);
  summary.field("max_l2_hit_err", max_l2_err);
  summary.field("sim_host_sec", sim_host_sec);
  summary.field("predict_host_sec", predict_host_sec);
  summary.field("advantage", advantage);
  summary.field("band_breaches", breaches);
  summary.finish();
  bench::print_engine_stats(engine);

  if (breaches > 0) {
    std::fprintf(stderr,
                 "%d cell(s) outside the CALIBRATION.md error bands "
                 "(speedup %.2f, CPI %.2f, L2 hit %.2f)\n",
                 breaches, kSpeedupBand, kCpiBand, kL2HitBand);
    return 1;
  }
  return 0;
}
