// paxsim/harness/cellspec.cpp
#include "harness/cellspec.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace paxsim::harness {

CellSpec CellSpec::bench(npb::Benchmark b) {
  CellSpec s;
  s.a_ = b;
  s.b_ = b;
  return s;
}

CellSpec CellSpec::bench(std::string_view name) {
  CellSpec s;
  npb::Benchmark b{};
  if (!npb::parse_benchmark(std::string(name), b)) {
    s.fail("unknown benchmark '" + std::string(name) + "'");
    return s;
  }
  s.a_ = b;
  s.b_ = b;
  return s;
}

void CellSpec::fail(std::string why) {
  if (error_.empty()) error_ = std::move(why);
}

CellSpec& CellSpec::pair_with(npb::Benchmark b) {
  b_ = b;
  has_pair_ = true;
  if (!mode_set_) mode_ = Mode::kPair;
  return *this;
}

CellSpec& CellSpec::pair_with(std::string_view name) {
  npb::Benchmark b{};
  if (!npb::parse_benchmark(std::string(name), b)) {
    fail("unknown benchmark '" + std::string(name) + "'");
    return *this;
  }
  return pair_with(b);
}

CellSpec& CellSpec::machine(std::string_view spec) {
  machine_spec_ = spec == "default" ? std::string() : std::string(spec);
  topology_.reset();
  machine_resolved_ = false;
  return *this;
}

CellSpec& CellSpec::machine(std::shared_ptr<const sim::Topology> topo) {
  topology_ = std::move(topo);
  machine_spec_ = topology_ == nullptr ? std::string() : topology_->name;
  machine_resolved_ = true;
  return *this;
}

CellSpec& CellSpec::config(std::string_view name) {
  config_name_ = std::string(name);
  has_explicit_cfg_ = false;
  return *this;
}

CellSpec& CellSpec::config(const StudyConfig& cfg) {
  explicit_cfg_ = cfg;
  has_explicit_cfg_ = true;
  config_name_.clear();
  return *this;
}

CellSpec& CellSpec::problem_class(npb::ProblemClass cls) {
  opt_.cls = cls;
  return *this;
}

CellSpec& CellSpec::problem_class(char letter) {
  switch (letter) {
    case 'S': opt_.cls = npb::ProblemClass::kClassS; break;
    case 'W': opt_.cls = npb::ProblemClass::kClassW; break;
    case 'A': opt_.cls = npb::ProblemClass::kClassA; break;
    case 'B': opt_.cls = npb::ProblemClass::kClassB; break;
    default:
      fail(std::string("bad problem class '") + letter +
           "' (use S, W, A or B)");
  }
  return *this;
}

CellSpec& CellSpec::scale(double machine_scale) {
  if (!std::isfinite(machine_scale) || machine_scale < 1.0) {
    fail("bad scale " + std::to_string(machine_scale) +
         " (need a finite number >= 1)");
    return *this;
  }
  opt_.machine_scale = machine_scale;
  return *this;
}

CellSpec& CellSpec::grain(std::size_t grain) {
  if (grain < 1) {
    fail("bad grain (need >= 1)");
    return *this;
  }
  opt_.grain = grain;
  return *this;
}

CellSpec& CellSpec::schedule(int sched_kind, std::size_t chunk) {
  if (sched_kind < -1 || sched_kind > 2) {
    fail("bad schedule kind " + std::to_string(sched_kind) +
         " (use -1, or xomp::ScheduleKind as an int)");
    return *this;
  }
  opt_.sched_kind = sched_kind;
  // Canonical identity: the kernel-default schedule has no chunk, so a
  // chunk next to kind -1 must not mint a distinct (but behaviourally
  // identical) CellKey.
  opt_.sched_chunk = sched_kind < 0 ? 0 : chunk;
  return *this;
}

CellSpec& CellSpec::schedule(std::string_view name, std::size_t chunk) {
  if (name == "default") return schedule(-1, chunk);
  if (name == "static") {
    return schedule(static_cast<int>(xomp::ScheduleKind::kStatic), chunk);
  }
  if (name == "dynamic") {
    return schedule(static_cast<int>(xomp::ScheduleKind::kDynamic), chunk);
  }
  if (name == "guided") {
    return schedule(static_cast<int>(xomp::ScheduleKind::kGuided), chunk);
  }
  fail("bad schedule '" + std::string(name) +
       "' (use default, static, dynamic or guided)");
  return *this;
}

CellSpec& CellSpec::trials(int n) {
  if (n < 1) {
    fail("bad trials (need >= 1)");
    return *this;
  }
  opt_.trials = n;
  return *this;
}

CellSpec& CellSpec::seed(std::uint64_t base_seed) {
  opt_.base_seed = base_seed;
  return *this;
}

CellSpec& CellSpec::verify(bool on) {
  opt_.verify = on;
  return *this;
}

CellSpec& CellSpec::check(sim::CheckMode mode) {
  opt_.check_mode = mode;
  return *this;
}

CellSpec& CellSpec::trace(sim::TraceMode mode) {
  opt_.trace_mode = mode;
  return *this;
}

CellSpec& CellSpec::mode(Mode m) {
  mode_ = m;
  mode_set_ = true;
  return *this;
}

bool CellSpec::resolve(Resolved* out, std::string* why) const {
  const auto err = [why](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (!error_.empty()) return err(error_);
  if (mode_ == Mode::kPair && !has_pair_) {
    return err("pair cell needs a second benchmark (pair_with)");
  }
  if (mode_ != Mode::kPair && has_pair_) {
    return err("pair_with set on a non-pair cell");
  }

  Resolved r;
  r.a = a_;
  r.b = mode_ == Mode::kPair ? b_ : a_;
  r.mode = mode_;
  r.opt = opt_;
  r.machine_spec = machine_spec_;

  // Machine: an adopted topology is authoritative; otherwise resolve the
  // spec ("" = the calibrated default machine, null topology).
  std::shared_ptr<const sim::Topology> topo = topology_;
  if (!machine_resolved_ && !machine_spec_.empty()) {
    sim::Topology t;
    std::string res_why;
    if (!sim::Topology::resolve(machine_spec_, &t, &res_why)) {
      return err("bad machine '" + machine_spec_ + "': " + res_why);
    }
    topo = std::make_shared<const sim::Topology>(std::move(t));
  }
  r.opt.topology = topo;

  // Configuration: an explicit row passes through; a name resolves against
  // THIS machine's configuration table.
  if (has_explicit_cfg_) {
    r.cfg = explicit_cfg_;
  } else {
    if (config_name_.empty()) return err("configuration not set");
    const auto table = configs_for(r.opt.resolved_topology());
    const int i = find_config_index(table, config_name_);
    if (i < 0) {
      return err("unknown configuration '" + config_name_ + "' on machine '" +
                 (r.machine_spec.empty() ? "default" : r.machine_spec) + "'");
    }
    r.cfg = table[static_cast<std::size_t>(i)];
  }
  if (r.mode == Mode::kPair && r.cfg.cpus.size() < 2) {
    return err("pair cell needs a configuration with at least two contexts");
  }
  *out = std::move(r);
  return true;
}

CellSpec::Resolved CellSpec::resolve() const {
  Resolved r;
  std::string why;
  if (!resolve(&r, &why)) throw std::invalid_argument("CellSpec: " + why);
  return r;
}

CellKey CellSpec::Resolved::key(int trial) const {
  CellKey::Kind kind = CellKey::Kind::kSingle;
  if (mode == Mode::kPair) kind = CellKey::Kind::kPair;
  if (mode == Mode::kPredict) kind = CellKey::Kind::kPredict;
  return CellKey::from(kind, a, b, cfg, opt, opt.trial_seed(trial));
}

std::string CellSpec::Resolved::fingerprint(int trial) const {
  return cell_fingerprint(key(trial));
}

std::string CellSpec::Resolved::digest(int trial) const {
  return cell_digest(fingerprint(trial));
}

}  // namespace paxsim::harness
