// bench/serve_throughput.cpp — serving-layer artifact: measures the
// persistent result store end to end.  Expands one job file shaped like the
// acceptance sweep (every suite kernel on every Table-1 configuration),
// then runs it twice against a fresh store:
//
//   cold pass — every cell simulated and written through (rename commits)
//   warm pass — every cell answered from the store; zero simulation
//
// and reports cells/sec for both, the warm:cold ratio, and the store's own
// operation counters as a single JSON object (plus a readable summary), so
// serving regressions are scriptable to catch.
//
// paxlint: allow-file(wallclock) -- this bench times the serving layer on the host; nothing here feeds simulated state
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/bench_common.hpp"

using namespace paxsim;

namespace {

struct Pass {
  double seconds = 0;
  serve::ServeSummary summary;
};

Pass run_pass(const serve::JobPlan& plan, const std::string& store_dir) {
  serve::ServeOptions so;
  Pass p;
  const auto t0 = std::chrono::steady_clock::now();
  p.summary = serve::serve_cells(plan, store_dir, so, nullptr);
  const auto t1 = std::chrono::steady_clock::now();
  p.seconds = std::chrono::duration<double>(t1 - t0).count();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  opt.run.cls = npb::ProblemClass::kClassS;  // store overhead, not the sim
  if (!bench::parse_args(argc, argv, opt)) return 1;
  bench::print_study_header("serve throughput: cold compute vs warm store",
                            opt);
  bench::print_host_provenance("serve_throughput", opt);

  // The acceptance-shaped sweep: all kernels x all Table-1 configurations,
  // simulation cells plus analytical predictions.
  const std::string job_text =
      "{\"schema_version\":1,\"kind\":\"job_file\","
      "\"defaults\":{\"class\":\"" +
      std::string(npb::class_name(opt.run.cls)) +
      "\",\"trials\":1,\"seed\":" + std::to_string(opt.run.base_seed) +
      "},\"sweeps\":[{\"benches\":\"all\",\"configs\":\"all\","
      "\"modes\":[\"single\",\"predict\"]}]}";
  serve::JobPlan plan;
  std::string error;
  if (!serve::parse_job_file(job_text, &plan, &error)) {
    std::fprintf(stderr, "internal job file rejected: %s\n", error.c_str());
    return 1;
  }

  // A store of this process's own: cold means cold.
  const std::string store_dir =
      !opt.store_dir.empty()
          ? opt.store_dir
          : (std::filesystem::temp_directory_path() /
             ("paxserve_bench." + std::to_string(::getpid())))
                .string();
  const Pass cold = run_pass(plan, store_dir);
  const Pass warm = run_pass(plan, store_dir);
  if (opt.store_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }

  const double cells = static_cast<double>(plan.cells.size());
  const double cold_rate = cold.seconds > 0 ? cells / cold.seconds : 0;
  const double warm_rate = warm.seconds > 0 ? cells / warm.seconds : 0;
  std::printf("plan: %llu cells (%s)\n",
              static_cast<unsigned long long>(plan.cells.size()),
              std::string(npb::class_name(opt.run.cls)).c_str());
  std::printf("cold: %6.2f s, %8.1f cells/s (%llu computed)\n", cold.seconds,
              cold_rate,
              static_cast<unsigned long long>(cold.summary.computed));
  std::printf("warm: %6.2f s, %8.1f cells/s (%llu store hits)\n",
              warm.seconds, warm_rate,
              static_cast<unsigned long long>(warm.summary.store_hits));
  std::printf("warm/cold: %.1fx\n",
              cold_rate > 0 ? warm_rate / cold_rate : 0.0);

  // One machine-readable line for CI trend tracking.  The warm pass must
  // have computed nothing; collectors alert on warm_computed != 0.
  std::printf(
      "{\"artifact\":\"serve_throughput\",\"schema_version\":1,"
      "\"cells\":%llu,%s,"
      "\"cold_sec\":%.6f,\"cold_cells_per_sec\":%.2f,"
      "\"warm_sec\":%.6f,\"warm_cells_per_sec\":%.2f,"
      "\"cold_computed\":%llu,\"warm_store_hits\":%llu,"
      "\"warm_computed\":%llu}\n",
      static_cast<unsigned long long>(plan.cells.size()),
      bench::host_provenance_json(opt).c_str(), cold.seconds, cold_rate,
      warm.seconds, warm_rate,
      static_cast<unsigned long long>(cold.summary.computed),
      static_cast<unsigned long long>(warm.summary.store_hits),
      static_cast<unsigned long long>(warm.summary.computed));
  return warm.summary.computed == 0 ? 0 : 1;
}
