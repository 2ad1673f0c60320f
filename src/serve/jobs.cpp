// paxsim/serve/jobs.cpp
#include "serve/jobs.hpp"

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "npb/kernel.hpp"
#include "report/json.hpp"
#include "report/parse.hpp"
#include "sim/topology.hpp"

namespace paxsim::serve {
namespace {

/// Applies @p obj's knob members on top of @p opt.  Unknown members are an
/// error (a typo'd knob silently meaning "default" would poison a sweep),
/// except the structural sweep members the caller owns.
bool apply_knobs(const report::JsonValue& obj, harness::RunOptions* opt,
                 bool is_sweep, std::string* error) {
  for (const auto& [name, v] : obj.members) {
    if (name == "class") {
      if (!v.is_string() || !npb::parse_class(v.string, opt->cls)) {
        *error = "bad \"class\" (use \"S\", \"W\", \"A\" or \"B\")";
        return false;
      }
    } else if (name == "trials") {
      std::uint64_t t = 0;
      if (!v.as_u64(&t) || t < 1 || t > 1000) {
        *error = "bad \"trials\" (need an integer in [1, 1000])";
        return false;
      }
      opt->trials = static_cast<int>(t);
    } else if (name == "seed") {
      if (!v.as_u64(&opt->base_seed)) {
        *error = "bad \"seed\" (need an unsigned integer)";
        return false;
      }
    } else if (name == "verify") {
      if (!v.is_bool()) {
        *error = "bad \"verify\" (need a boolean)";
        return false;
      }
      opt->verify = v.boolean;
    } else if (name == "grain") {
      std::uint64_t g = 0;
      if (!v.as_u64(&g) || g < 1) {
        *error = "bad \"grain\" (need an integer >= 1)";
        return false;
      }
      opt->grain = static_cast<std::size_t>(g);
    } else if (name == "scale") {
      if (!v.is_number()) {
        *error = "bad \"scale\" (need a number)";
        return false;
      }
      // A NaN scale would spin MachineParams::scaled forever.
      if (!std::isfinite(v.number) || v.number < 1.0) {
        *error = "bad scale " + std::to_string(v.number) +
                 " (need a finite number >= 1)";
        return false;
      }
      opt->machine_scale = v.number;
    } else if (name == "schedule") {
      if (!v.is_string() ||
          !harness::parse_sched_name(v.string, &opt->sched_kind)) {
        *error =
            "bad \"schedule\" (use \"default\", \"static\", \"dynamic\" or "
            "\"guided\")";
        return false;
      }
    } else if (name == "chunk") {
      std::uint64_t c = 0;
      if (!v.as_u64(&c)) {
        *error = "bad \"chunk\" (need an unsigned integer)";
        return false;
      }
      opt->sched_chunk = static_cast<std::size_t>(c);
    } else if (is_sweep && (name == "benches" || name == "machines" ||
                            name == "configs" || name == "modes" ||
                            name == "pairs")) {
      // Structural members, handled by expand_sweep.
    } else {
      *error = "unknown member \"" + name + "\"";
      return false;
    }
  }
  return true;
}

/// "benches": "all" | ["CG", ...].  Absent means "all".
bool parse_benches(const report::JsonValue& sweep,
                   std::vector<npb::Benchmark>* out, std::string* error) {
  out->clear();
  const report::JsonValue* v = sweep.find("benches");
  if (v == nullptr || (v->is_string() && v->string == "all")) {
    out->assign(std::begin(npb::kAllBenchmarks), std::end(npb::kAllBenchmarks));
    return true;
  }
  if (!v->is_array() || v->items.empty()) {
    *error = "bad \"benches\" (use \"all\" or a non-empty array of names)";
    return false;
  }
  for (const report::JsonValue& item : v->items) {
    npb::Benchmark b{};
    if (!item.is_string() || !npb::parse_benchmark(item.string, b)) {
      *error = "bad benchmark \"" + item.string + "\" in \"benches\"";
      return false;
    }
    out->push_back(b);
  }
  return true;
}

/// "pairs": [["CG","FT"], ...].
bool parse_pairs(const report::JsonValue& sweep,
                 std::vector<std::pair<npb::Benchmark, npb::Benchmark>>* out,
                 std::string* error) {
  out->clear();
  const report::JsonValue* v = sweep.find("pairs");
  if (v == nullptr) return true;
  if (!v->is_array()) {
    *error = "bad \"pairs\" (need an array of [\"A\",\"B\"] pairs)";
    return false;
  }
  for (const report::JsonValue& item : v->items) {
    npb::Benchmark a{}, b{};
    if (!item.is_array() || item.items.size() != 2 ||
        !item.items[0].is_string() || !item.items[1].is_string() ||
        !npb::parse_benchmark(item.items[0].string, a) ||
        !npb::parse_benchmark(item.items[1].string, b)) {
      *error = "bad \"pairs\" entry (each must be [\"A\",\"B\"])";
      return false;
    }
    out->emplace_back(a, b);
  }
  return true;
}

/// One resolved machine of a sweep: the spec string plus the topology
/// (null for the default machine) and its configuration table.
struct ResolvedMachine {
  std::string spec;  ///< as written ("" and "default" normalize to "")
  std::shared_ptr<const sim::Topology> topology;  ///< null = default
  std::vector<harness::StudyConfig> configs;
};

/// "machines": ["default", "woodcrest", "topo.json", ...].  Absent means
/// the default machine only.
bool parse_machines(const report::JsonValue& sweep,
                    std::vector<ResolvedMachine>* out, std::string* error) {
  out->clear();
  std::vector<std::string> specs;
  const report::JsonValue* v = sweep.find("machines");
  if (v == nullptr) {
    specs.emplace_back();
  } else if (v->is_array() && !v->items.empty()) {
    for (const report::JsonValue& item : v->items) {
      if (!item.is_string()) {
        *error = "bad \"machines\" (need an array of spec strings)";
        return false;
      }
      specs.push_back(item.string == "default" ? std::string() : item.string);
    }
  } else {
    *error = "bad \"machines\" (need a non-empty array of spec strings)";
    return false;
  }
  for (std::string& spec : specs) {
    ResolvedMachine m;
    m.spec = std::move(spec);
    if (m.spec.empty()) {
      m.configs = harness::all_configs();
    } else {
      sim::Topology topo;
      std::string why;
      if (!sim::Topology::resolve(m.spec, &topo, &why)) {
        *error = "bad machine \"" + m.spec + "\": " + why;
        return false;
      }
      m.topology = std::make_shared<const sim::Topology>(std::move(topo));
      m.configs = harness::configs_for(*m.topology);
    }
    out->push_back(std::move(m));
  }
  return true;
}

using Kind = harness::CellKey::Kind;

bool parse_modes(const report::JsonValue& sweep, std::vector<Kind>* out,
                 std::string* error) {
  out->clear();
  const report::JsonValue* v = sweep.find("modes");
  if (v == nullptr) {
    out->push_back(Kind::kSingle);
    return true;
  }
  if (!v->is_array() || v->items.empty()) {
    *error = "bad \"modes\" (need a non-empty array)";
    return false;
  }
  for (const report::JsonValue& item : v->items) {
    if (item.string == "single") {
      out->push_back(Kind::kSingle);
    } else if (item.string == "pair") {
      out->push_back(Kind::kPair);
    } else if (item.string == "predict") {
      out->push_back(Kind::kPredict);
    } else {
      *error = "bad mode \"" + item.string +
               "\" (use \"single\", \"pair\" or \"predict\")";
      return false;
    }
  }
  return true;
}

/// The configuration rows a sweep names on one machine.  "all" (or absent)
/// expands mode-sensitively: pairs get only the parallel rows (a pair needs
/// threads to split between two programs).
bool select_configs(const report::JsonValue& sweep, const ResolvedMachine& m,
                    bool for_pairs,
                    std::vector<const harness::StudyConfig*>* out,
                    std::string* error) {
  out->clear();
  const report::JsonValue* v = sweep.find("configs");
  if (v == nullptr || (v->is_string() && v->string == "all")) {
    for (const harness::StudyConfig& cfg : m.configs) {
      if (!(for_pairs && cfg.is_serial())) out->push_back(&cfg);
    }
    return true;
  }
  if (!v->is_array() || v->items.empty()) {
    *error = "bad \"configs\" (use \"all\" or a non-empty array of names)";
    return false;
  }
  for (const report::JsonValue& item : v->items) {
    const int i = item.is_string()
                      ? harness::find_config_index(m.configs, item.string)
                      : -1;
    if (i < 0) {
      *error = "unknown configuration \"" + item.string + "\" on machine \"" +
               (m.spec.empty() ? "default" : m.spec) + "\"";
      return false;
    }
    out->push_back(&m.configs[static_cast<std::size_t>(i)]);
  }
  return true;
}

/// Appends every trial of one cell, collapsing duplicates by fingerprint:
/// all trials of a cell whose seeds never reach the simulator are one.
void emit_cell(Kind kind, npb::Benchmark a, npb::Benchmark b,
               const harness::StudyConfig& cfg, const harness::RunOptions& opt,
               const ResolvedMachine& m, JobPlan* plan,
               std::unordered_set<std::string>* seen) {
  for (int t = 0; t < opt.trials; ++t) {
    harness::CellKey key =
        harness::CellKey::from(kind, a, b, cfg, opt, opt.trial_seed(t));
    if (!seen->insert(harness::cell_fingerprint(key)).second) continue;
    JobCell jc;
    jc.seed = key.seed;
    jc.key = std::move(key);
    jc.cfg = cfg;
    jc.opt = opt;
    jc.machine = m.spec;
    plan->cells.push_back(std::move(jc));
  }
}

bool expand_sweep(const report::JsonValue& sweep,
                  const harness::RunOptions& defaults, JobPlan* plan,
                  std::unordered_set<std::string>* seen, std::string* error) {
  harness::RunOptions opt = defaults;
  if (!apply_knobs(sweep, &opt, /*is_sweep=*/true, error)) return false;

  std::vector<npb::Benchmark> benches;
  std::vector<std::pair<npb::Benchmark, npb::Benchmark>> pairs;
  std::vector<ResolvedMachine> machines;
  std::vector<Kind> modes;
  if (!parse_benches(sweep, &benches, error) ||
      !parse_pairs(sweep, &pairs, error) ||
      !parse_machines(sweep, &machines, error) ||
      !parse_modes(sweep, &modes, error)) {
    return false;
  }
  for (const Kind mode : modes) {
    if (mode == Kind::kPair && pairs.empty()) {
      *error = "mode \"pair\" needs a non-empty \"pairs\" array";
      return false;
    }
  }

  for (const ResolvedMachine& m : machines) {
    opt.topology = m.topology;
    for (const Kind mode : modes) {
      std::vector<const harness::StudyConfig*> configs;
      if (!select_configs(sweep, m, mode == Kind::kPair, &configs, error)) {
        return false;
      }
      for (const harness::StudyConfig* cfg : configs) {
        if (mode != Kind::kPair) {
          for (const npb::Benchmark b : benches) {
            emit_cell(mode, b, b, *cfg, opt, m, plan, seen);
          }
        } else if (cfg->cpus.size() < 2) {
          // Two programs split the row's contexts between them.
          *error = "mode \"pair\" needs configurations with at least two "
                   "contexts, not \"" + cfg->name + "\"";
          return false;
        } else {
          for (const auto& [a, b] : pairs) {
            emit_cell(mode, a, b, *cfg, opt, m, plan, seen);
          }
        }
      }
    }
  }
  return true;
}

}  // namespace

bool parse_job_file(std::string_view text, JobPlan* out, std::string* error) {
  *out = JobPlan{};
  std::string err;
  report::JsonValue doc;
  if (!report::parse_json_value(text, &doc, &err)) {
    if (error != nullptr) *error = "job file: " + err;
    return false;
  }
  if (!doc.is_object() || doc.string_or("kind", "") != "job_file") {
    if (error != nullptr) {
      *error = "job file: root must be {\"kind\":\"job_file\", ...}";
    }
    return false;
  }
  std::uint64_t schema = 0;
  const report::JsonValue* sv = doc.find("schema_version");
  if (sv == nullptr || !sv->as_u64(&schema) ||
      schema != static_cast<std::uint64_t>(report::kSchemaVersion)) {
    if (error != nullptr) {
      *error = "job file: unsupported schema_version (want " +
               std::to_string(report::kSchemaVersion) + ")";
    }
    return false;
  }
  // A misplaced member (a top-level "machines" belongs in a sweep) must not
  // silently mean "default".
  for (const auto& m : doc.members) {
    if (m.first != "schema_version" && m.first != "kind" &&
        m.first != "store" && m.first != "defaults" && m.first != "sweeps") {
      if (error != nullptr) {
        *error = "job file: unknown member \"" + m.first + "\"";
      }
      return false;
    }
  }
  out->store_dir = doc.string_or("store", "");

  harness::RunOptions defaults;
  defaults.trials = 1;
  const report::JsonValue* d = doc.find("defaults");
  if (d != nullptr) {
    if (!d->is_object() ||
        !apply_knobs(*d, &defaults, /*is_sweep=*/false, &err)) {
      if (error != nullptr) {
        *error = "job file defaults: " + (err.empty() ? "not an object" : err);
      }
      return false;
    }
  }

  const report::JsonValue* sweeps = doc.find("sweeps");
  if (sweeps == nullptr || !sweeps->is_array() || sweeps->items.empty()) {
    if (error != nullptr) {
      *error = "job file: need a non-empty \"sweeps\" array";
    }
    return false;
  }
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < sweeps->items.size(); ++i) {
    if (!sweeps->items[i].is_object()) {
      if (error != nullptr) {
        *error = "job file sweep " + std::to_string(i) + ": not an object";
      }
      return false;
    }
    if (!expand_sweep(sweeps->items[i], defaults, out, &seen, &err)) {
      if (error != nullptr) {
        *error = "job file sweep " + std::to_string(i) + ": " + err;
      }
      return false;
    }
  }
  return true;
}

bool load_job_file(const std::string& path, JobPlan* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read job file '" + path + "'";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_job_file(ss.str(), out, error);
}

}  // namespace paxsim::serve
