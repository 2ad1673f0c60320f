// bench/e2e/paxbench.cpp — end-to-end and per-layer benchmark of the paper
// reproduction (README.md: workloads, metrics, bounds, API surface).
//
//   paxbench --workload=NAME [--seed=N] [--seconds=S] [--trace-out=FILE]
//            [--scratch=DIR] [--smoke]
//
// One workload per process.  Timed rounds run in a closed loop until
// --seconds is used, at least three of them; each round runs on the state
// of its own timed set-up (setup_s is the median set-up), and every metric
// is the median over rounds.  Every answer is hashed: a
// cell fails when it throws (numeric verification), when a later round's
// answer differs from round 0's, and, at the default seed, when round 0's
// digest differs from golden.json.  The last stdout line is one JSON
// object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"wall_s":
//    {"value":22.61,"unit":"s"},...}}
//
// holding the end-to-end metrics, or with --trace-out the per-layer ones:
// that run alternates untraced and traced rounds (trace.overhead_frac is
// the ratio of their medians), adds the trace-only phases, prints each
// layer's span count, total and self time, and writes every span to FILE.
// Exits 1 when any cell failed, 2 on a usage error.
//
// paxlint: allow-file(wallclock) -- set-up and round wall times are the benchmark's measurements; none reaches simulated state
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "report/parse.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using paxbench::Layer;
using paxbench::Round;
using paxbench::Spans;
using Clock = std::chrono::steady_clock;

/// Fewest rounds of a full run, so that its medians are medians.
constexpr std::size_t kMinRounds = 3;

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> m = {{"wall_s", "s"},
                                        {"cells_per_s", "cells/s"},
                                        {"sim_mips", "Minstr/s"},
                                        {"setup_s", "s"},
                                        {"peak_rss_mb", "MiB"}};
  return m;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> m = [] {
    const char* kernels[] = {"CG", "MG", "FT", "IS", "EP", "BT", "SP", "LU"};
    std::vector<Metric> v = {{"sim.host_s", "s"}};
    for (const char* k : kernels) v.push_back({std::string("sim.mips.") + k, "Minstr/s"});
    for (const char* k : kernels) {
      v.push_back({std::string("sim.fastpath_speedup.") + k, "x"});
    }
    const Metric rest[] = {{"sim.l1d_hit_frac", "fraction"},
                           {"sim.l2_miss_per_kinstr", "1/kinstr"},
                           {"sim.bus_per_kinstr", "1/kinstr"},
                           {"sim.machine_build_s", "s"},
                           {"npb.setup_verify_s", "s"},
                           {"harness.cells_requested", "count"},
                           {"harness.cells_simulated", "count"},
                           {"harness.dedup_frac", "fraction"},
                           {"harness.plan_s.fig2", "s"},
                           {"harness.plan_s.fig3", "s"},
                           {"harness.plan_s.fig4", "s"},
                           {"harness.plan_s.fig5", "s"},
                           {"harness.cell_s_p50", "s"},
                           {"harness.cell_s_p90", "s"},
                           {"harness.cell_n", "count"},
                           {"harness.worker_busy_frac", "fraction"},
                           {"serve.parse_s", "s"},
                           {"serve.cold_pass_s", "s"},
                           {"serve.warm_pass_s", "s"},
                           {"serve.store_load_us_p50", "us"},
                           {"serve.store_load_us_p90", "us"},
                           {"serve.store_write_us_p50", "us"},
                           {"serve.store_write_us_p90", "us"},
                           {"serve.store_bytes", "bytes"},
                           {"model.profile_s", "s"},
                           {"model.predict_us_p50", "us"},
                           {"trace.overhead_frac", "fraction"}};
    v.insert(v.end(), std::begin(rest), std::end(rest));
    for (std::size_t l = 0; l < paxbench::kLayerCount; ++l) {
      v.push_back({"layer." +
                       std::string(paxbench::layer_name(static_cast<Layer>(l))) +
                       ".self_s",
                   "s"});
    }
    return v;
  }();
  return m;
}

Clock::time_point now() { return std::chrono::steady_clock::now(); }

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(now() - t0).count();
}

int usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "paxbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace-out=FILE] [--scratch=DIR] [--smoke]\n"
               "workloads:",
               argv0);
  for (const std::string& w : paxbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Round 0's expected digest from golden.json; "" when the file or the
/// entry is missing.
std::string golden_digest(const std::string& key) {
  std::ifstream in(PAXBENCH_GOLDEN);
  std::stringstream text;
  text << in.rdbuf();
  paxsim::report::JsonValue doc;
  if (!in || !paxsim::report::parse_json_value(text.str(), &doc)) return "";
  const paxsim::report::JsonValue* digests = doc.find("digests");
  return digests == nullptr ? "" : digests->string_or(key, "");
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Median of every value named @p name across @p rounds; 0 when absent.
double layer_median(const std::vector<const Round*>& rounds,
                    const std::string& name) {
  std::vector<double> v;
  for (const Round* r : rounds) {
    for (const auto& [n, x] : r->layer) {
      if (n == name) v.push_back(x);
    }
  }
  return paxbench::quantile(v, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  paxbench::Settings s;
  s.scratch = ".bench_build/scratch";
  double seconds = 20;  // rounds repeat until this much time is used
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    const auto flag = [&a, &v](const std::string& name) {
      if (a.rfind(name, 0) != 0) return false;
      v = a.substr(name.size());
      return true;
    };
    char* end = nullptr;
    if (flag("--workload=")) {
      s.workload = v;
    } else if (flag("--seed=")) {
      s.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') {
        return usage(argv[0], "bad " + a);
      }
    } else if (flag("--seconds=")) {
      seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(seconds > 0)) {
        return usage(argv[0], "bad " + a);
      }
    } else if (flag("--trace-out=")) {
      trace_out = v;
    } else if (flag("--scratch=")) {
      s.scratch = v;
    } else if (a == "--smoke") {
      s.smoke = true;
    } else {
      return usage(argv[0], a == "--help" ? "" : "unknown argument " + a);
    }
  }
  const std::unique_ptr<paxbench::Workload> w = paxbench::make_workload(s);
  if (w == nullptr) return usage(argv[0], "unknown workload '" + s.workload + "'");

  Spans off(false);
  Spans on(!trace_out.empty());
  Round setups;
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  std::vector<bool> traced;
  std::vector<double> self_s[paxbench::kLayerCount];  ///< per traced round
  Round extras;
  paxbench::LayerTable extras_self{};
  try {
    std::filesystem::create_directories(s.scratch);
    // The traced run alternates untraced and traced rounds, so it needs at
    // least one of each; past the minimum, a round starts only if it should
    // end in time.
    const std::size_t min_rounds = !s.smoke ? kMinRounds : on.enabled() ? 2 : 1;
    const auto start = now();
    while (true) {
      const bool tr = on.enabled() && rounds.size() % 2 == 1;
      const auto t0 = now();
      w->setup(setups);
      setup_s.push_back(since(t0));
      const std::uint32_t first = on.next_id();
      rounds.push_back(w->round(tr ? on : off));
      traced.push_back(tr);
      if (tr) {
        const paxbench::LayerTable t = on.layer_totals(first);
        for (std::size_t l = 0; l < paxbench::kLayerCount; ++l) {
          self_s[l].push_back(t[l].self_s);
        }
      }
      if (rounds.size() < min_rounds) continue;
      if (s.smoke || since(start) + rounds.back().wall_s > seconds) break;
    }
    if (on.enabled()) {
      const std::uint32_t first = on.next_id();
      w->extras(on, extras);
      extras_self = on.layer_totals(first);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paxbench: %s\n", e.what());
    return 1;
  }

  // ---- correctness ---------------------------------------------------------
  std::uint64_t attempted = extras.cells;
  std::uint64_t failed = extras.failed;
  std::vector<std::string> errors = extras.errors;
  const std::vector<std::uint64_t>& ref = rounds.front().hashes;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const Round& r = rounds[k];
    attempted += r.cells;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    for (std::size_t i = 0; k > 0 && i < ref.size() && i < r.hashes.size(); ++i) {
      if (ref[i] != 0 && r.hashes[i] != 0 && r.hashes[i] != ref[i]) {
        ++failed;
        errors.push_back("round " + std::to_string(k) + " cell " +
                         std::to_string(i) + " differs from round 0");
      }
    }
  }
  const std::string digest = hex(paxbench::fold_hashes(ref));
  std::string golden_note = "not checked (seed is not the default)";
  if (s.seed == paxbench::kDefaultSeed) {
    const std::string key = s.workload + (s.smoke ? "/smoke" : "");
    const std::string expect = golden_digest(key);
    golden_note = "matches golden.json";
    if (expect != digest) {
      golden_note = expect.empty() ? "no golden.json entry '" + key + "'"
                                   : "differs from golden.json (" + expect + ")";
      errors.push_back("round 0 digest " + golden_note);
      for (const std::uint64_t h : ref) failed += h != 0 ? 1 : 0;
    }
  }
  failed = std::min(failed, attempted);

  // ---- metrics -------------------------------------------------------------
  std::vector<double> walls, walls_traced, rates, mips;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const Round& r = rounds[k];
    (traced[k] ? walls_traced : walls).push_back(r.wall_s);
    if (traced[k]) continue;
    rates.push_back(static_cast<double>(r.cells) / r.wall_s);
    mips.push_back(r.instructions / r.wall_s / 1e6);
  }
  std::vector<std::pair<Metric, double>> out;
  if (!on.enabled()) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double values[] = {paxbench::quantile(walls, 0.5),
                             paxbench::quantile(rates, 0.5),
                             paxbench::quantile(mips, 0.5),
                             paxbench::quantile(setup_s, 0.5),
                             static_cast<double>(ru.ru_maxrss) / 1024.0};
    for (std::size_t i = 0; i < end_to_end_metrics().size(); ++i) {
      out.emplace_back(end_to_end_metrics()[i], values[i]);
    }
  } else {
    std::vector<const Round*> all = {&setups, &extras};
    for (const Round& r : rounds) all.push_back(&r);
    Round derived;
    derived.put("trace.overhead_frac", paxbench::quantile(walls_traced, 0.5) /
                                           paxbench::quantile(walls, 0.5) -
                                           1);
    // A layer's self time: a median traced round plus the trace-only phases.
    for (std::size_t l = 0; l < paxbench::kLayerCount; ++l) {
      derived.put("layer." +
                      std::string(paxbench::layer_name(static_cast<Layer>(l))) +
                      ".self_s",
                  paxbench::quantile(self_s[l], 0.5) + extras_self[l].self_s);
    }
    all.push_back(&derived);
    for (const Metric& m : per_layer_metrics()) {
      out.emplace_back(m, layer_median(all, m.name));
    }
  }

  // ---- report --------------------------------------------------------------
  std::printf("paxbench: workload %s, class %s, seed %" PRIu64
              ", %zu rounds (%zu traced), %d engine workers\n",
              s.workload.c_str(), w->problem_class().c_str(), s.seed,
              rounds.size(), walls_traced.size(), paxbench::kJobs);
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    std::printf("round %zu%s: set-up %.6f s, %.3f s, %" PRIu64 " cells, %" PRIu64
                " failed\n",
                k, traced[k] ? " (traced)" : "", setup_s[k], rounds[k].wall_s,
                rounds[k].cells, rounds[k].failed);
  }
  std::printf("digest: %s, %s\n", digest.c_str(), golden_note.c_str());
  std::ostringstream extra;
  w->report(extra);
  std::fputs(extra.str().c_str(), stdout);
  for (std::size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::printf("FAIL: %s\n", errors[i].c_str());
  }
  if (on.enabled()) {
    const paxbench::LayerTable t = on.layer_totals();
    std::printf("%-8s %8s %12s %12s\n", "layer", "spans", "total_s", "self_s");
    for (std::size_t l = 0; l < paxbench::kLayerCount; ++l) {
      std::printf("%-8s %8" PRIu64 " %12.6f %12.6f\n",
                  std::string(paxbench::layer_name(static_cast<Layer>(l))).c_str(),
                  t[l].count, t[l].total_s, t[l].self_s);
    }
    std::ofstream f(trace_out);
    on.write_json(f, s.workload);
    if (!f) {
      std::fprintf(stderr, "paxbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("spans: %s\n", trace_out.c_str());
  }
  for (const auto& [m, v] : out) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), v, m.unit.c_str());
  }
  std::fflush(stdout);

  paxsim::report::Json j(std::cout);
  j.object().field("correct", failed == 0).field("attempted", attempted);
  j.field("failed", failed).key("metrics").object();
  for (const auto& [m, v] : out) {
    j.key(m.name).object().field("value", v).field("unit", m.unit).end();
  }
  j.finish();
  return failed == 0 ? 0 : 1;
}
