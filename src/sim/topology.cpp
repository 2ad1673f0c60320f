// paxsim/sim/topology.cpp
#include "sim/topology.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "report/json.hpp"
#include "report/parse.hpp"

namespace paxsim::sim {

const char* sharing_scope_name(SharingScope s) noexcept {
  switch (s) {
    case SharingScope::kPerContext: return "context";
    case SharingScope::kPerCore: return "core";
    case SharingScope::kPerChip: return "chip";
  }
  return "?";
}

const char* interconnect_name(Interconnect i) noexcept {
  switch (i) {
    case Interconnect::kSharedFsb: return "shared_fsb";
    case Interconnect::kPointToPoint: return "point_to_point";
  }
  return "?";
}

bool Topology::has_chip_shared_cache() const noexcept {
  for (const TopoCacheLevel& lv : levels) {
    if (lv.scope == SharingScope::kPerChip) return true;
  }
  return false;
}

namespace {

bool fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return false;
}

}  // namespace

bool Topology::validate(std::string* error) const {
  if (packages < 1 || packages > 16) {
    return fail(error, "packages must be in [1,16]");
  }
  if (cores_per_package < 1 || cores_per_package > 16) {
    return fail(error, "cores_per_package must be in [1,16]");
  }
  if (smt_per_core < 1 || smt_per_core > 4) {
    return fail(error, "smt_per_core must be in [1,4]");
  }
  if (total_cores() > 32) {
    return fail(error, "more than 32 cores (holder mask width)");
  }
  if (total_contexts() > 64) return fail(error, "more than 64 contexts");
  if (link_read_occupancy <= 0 || link_write_occupancy <= 0) {
    return fail(error, "link occupancies must be positive");
  }
  if (levels.empty()) return fail(error, "no cache levels");
  if (levels.size() > 4) return fail(error, "more than 4 cache levels");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const TopoCacheLevel& lv = levels[i];
    const std::string tag = "level " + std::to_string(i) +
                            (lv.name.empty() ? "" : " (" + lv.name + ")");
    if (lv.geometry.ways == 0) return fail(error, tag + ": zero-way cache");
    if (!is_pow2(lv.geometry.line_bytes) || lv.geometry.line_bytes < 8) {
      return fail(error, tag + ": line size must be a power of two >= 8");
    }
    // Compared in lines: line_bytes * ways can wrap for parsed values.
    const std::size_t lines = lv.geometry.size_bytes / lv.geometry.line_bytes;
    if (lv.geometry.size_bytes % lv.geometry.line_bytes != 0 ||
        lines < lv.geometry.ways || lines % lv.geometry.ways != 0) {
      return fail(error,
                  tag + ": capacity must be a multiple of line_bytes*ways");
    }
    if (lv.latency < 1) return fail(error, tag + ": latency must be >= 1");
    if (i > 0) {
      if (lv.geometry.size_bytes < levels[i - 1].geometry.size_bytes) {
        return fail(error, tag + ": shrinks relative to the inner level");
      }
      if (lv.geometry.line_bytes != levels[i - 1].geometry.line_bytes) {
        return fail(error, tag + ": line size differs from the inner level");
      }
      if (lv.latency < levels[i - 1].latency) {
        return fail(error, tag + ": faster than the inner level");
      }
      if (static_cast<int>(lv.scope) < static_cast<int>(levels[i - 1].scope)) {
        return fail(error, tag + ": sharing scope narrows going outward");
      }
    }
  }
  if (nodes.empty()) return fail(error, "no memory nodes");
  std::vector<int> homed(static_cast<std::size_t>(packages), 0);
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const MemNode& node = nodes[n];
    const std::string tag = "node " + std::to_string(n);
    if (node.latency < 1) return fail(error, tag + ": latency must be >= 1");
    if (node.read_occupancy <= 0 || node.write_occupancy <= 0) {
      return fail(error, tag + ": occupancies must be positive");
    }
    if (node.home_packages.empty()) {
      return fail(error, tag + ": orphan NUMA node (homes no package)");
    }
    for (const int p : node.home_packages) {
      if (p < 0 || p >= packages) {
        return fail(error, tag + ": homes nonexistent package " +
                               std::to_string(p));
      }
      ++homed[static_cast<std::size_t>(p)];
    }
  }
  for (int p = 0; p < packages; ++p) {
    if (homed[static_cast<std::size_t>(p)] != 1) {
      return fail(error, "package " + std::to_string(p) +
                             " must be homed by exactly one node");
    }
  }
  return true;
}

bool Topology::validate_for_sim(std::string* error) const {
  if (!validate(error)) return false;
  if (levels.size() < 2 || levels.size() > 3) {
    return fail(error, "simulator supports 2- or 3-level data hierarchies");
  }
  if (levels[0].scope != SharingScope::kPerCore) {
    return fail(error,
                "simulator requires a per-core innermost level (per-context "
                "data caches are model-only)");
  }
  if (levels.size() == 3) {
    if (levels[1].scope != SharingScope::kPerCore ||
        levels[2].scope != SharingScope::kPerChip) {
      return fail(error,
                  "3-level hierarchies must be per-core L2 + per-chip L3");
    }
  } else if (levels[1].scope == SharingScope::kPerContext) {
    return fail(error, "outer level cannot be per-context");
  }
  if (smt_per_core > 2) {
    return fail(error, "simulator supports at most 2 SMT contexts per core");
  }
  return true;
}

std::string Topology::fingerprint() const {
  std::ostringstream os;
  os << name << ";" << packages << "x" << cores_per_package << "x"
     << smt_per_core << ";" << interconnect_name(interconnect) << ";"
     << link_read_occupancy << "/" << link_write_occupancy << ";+"
     << remote_node_extra_latency;
  for (const TopoCacheLevel& lv : levels) {
    os << ";" << lv.name << ":" << lv.geometry.size_bytes << "/"
       << lv.geometry.line_bytes << "/" << lv.geometry.ways << "/"
       << sharing_scope_name(lv.scope) << "/" << lv.latency;
  }
  for (const MemNode& node : nodes) {
    os << ";N:" << node.latency << "/" << node.read_occupancy << "/"
       << node.write_occupancy << "/[";
    for (std::size_t i = 0; i < node.home_packages.size(); ++i) {
      os << (i > 0 ? "," : "") << node.home_packages[i];
    }
    os << "]";
  }
  return os.str();
}

std::string Topology::to_json() const {
  std::ostringstream os;
  report::Json j(os);
  j.begin_document("topology");
  j.field("name", std::string_view(name));
  j.field("packages", packages);
  j.field("cores_per_package", cores_per_package);
  j.field("smt_per_core", smt_per_core);
  j.field("interconnect", interconnect_name(interconnect));
  j.field("link_read_occupancy", link_read_occupancy);
  j.field("link_write_occupancy", link_write_occupancy);
  j.field("remote_node_extra_latency", remote_node_extra_latency);
  j.key("levels").array();
  for (const TopoCacheLevel& lv : levels) {
    j.object();
    j.field("name", std::string_view(lv.name));
    j.field("size_bytes", static_cast<std::uint64_t>(lv.geometry.size_bytes));
    j.field("line_bytes", static_cast<std::uint64_t>(lv.geometry.line_bytes));
    j.field("ways", static_cast<std::uint64_t>(lv.geometry.ways));
    j.field("scope", sharing_scope_name(lv.scope));
    j.field("latency", lv.latency);
    j.end();
  }
  j.end();
  j.key("nodes").array();
  for (const MemNode& node : nodes) {
    j.object();
    j.field("latency", node.latency);
    j.field("read_occupancy", node.read_occupancy);
    j.field("write_occupancy", node.write_occupancy);
    j.key("home_packages").array();
    for (const int p : node.home_packages) j.value(p);
    j.end();
    j.end();
  }
  j.end();
  j.finish();
  return os.str();
}

// ---------------------------------------------------------------------------
// Reading a topology file: report::parse_json_value owns the JSON syntax;
// these helpers read the schema's typed fields out of its document.

namespace {

using report::JsonValue;

/// The numeric member @p key, or nullptr (with @p error set) when it is
/// missing or not a number.
const JsonValue* number_field(const JsonValue& obj, const std::string& key,
                              std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    fail(error, "missing or non-numeric field '" + key + "'");
    return nullptr;
  }
  return v;
}

bool take_number(const JsonValue& obj, const std::string& key, double* out,
                 std::string* error) {
  const JsonValue* v = number_field(obj, key, error);
  if (v == nullptr) return false;
  *out = v->number;
  return true;
}

/// Integer fields hold exact unsigned integer literals (JsonValue::as_u64):
/// "2.0", "2e0" and "-2" are refused, never rounded or wrapped.
bool take_u64(const JsonValue& obj, const std::string& key, std::uint64_t* out,
              std::string* error) {
  const JsonValue* v = number_field(obj, key, error);
  if (v == nullptr) return false;
  if (!v->as_u64(out)) {
    return fail(error, "field '" + key + "' must be a non-negative integer");
  }
  return true;
}

/// An integer literal (see take_u64) that fits an int.
bool as_int(const JsonValue& v, int* out) {
  std::uint64_t u = 0;
  if (!v.as_u64(&u) ||
      u > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(u);
  return true;
}

bool take_int(const JsonValue& obj, const std::string& key, int* out,
              std::string* error) {
  const JsonValue* v = number_field(obj, key, error);
  if (v == nullptr) return false;
  if (!as_int(*v, out)) {
    return fail(error, "field '" + key + "' must be an integer");
  }
  return true;
}

bool take_string(const JsonValue& obj, const std::string& key,
                 std::string* out, std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    return fail(error, "missing or non-string field '" + key + "'");
  }
  *out = v->string;
  return true;
}

bool parse_scope(const std::string& s, SharingScope* out) {
  if (s == "context") *out = SharingScope::kPerContext;
  else if (s == "core") *out = SharingScope::kPerCore;
  else if (s == "chip") *out = SharingScope::kPerChip;
  else return false;
  return true;
}

}  // namespace

bool Topology::parse_json(std::string_view text, Topology* out,
                          std::string* error) {
  JsonValue root;
  if (!report::parse_json_value(text, &root, error)) return false;
  if (!root.is_object()) {
    return fail(error, "topology document must be a JSON object");
  }
  int schema = 0;
  if (!take_int(root, "schema_version", &schema, error)) return false;
  if (schema != report::kSchemaVersion) {
    return fail(error, "unsupported schema_version " + std::to_string(schema));
  }
  std::string kind;
  if (!take_string(root, "kind", &kind, error)) return false;
  if (kind != "topology") {
    return fail(error, "document kind is '" + kind + "', want 'topology'");
  }

  Topology t;
  if (!take_string(root, "name", &t.name, error)) return false;
  if (!take_int(root, "packages", &t.packages, error)) return false;
  if (!take_int(root, "cores_per_package", &t.cores_per_package, error)) {
    return false;
  }
  if (!take_int(root, "smt_per_core", &t.smt_per_core, error)) return false;
  std::string interconnect;
  if (!take_string(root, "interconnect", &interconnect, error)) return false;
  if (interconnect == "shared_fsb") {
    t.interconnect = Interconnect::kSharedFsb;
  } else if (interconnect == "point_to_point") {
    t.interconnect = Interconnect::kPointToPoint;
  } else {
    return fail(error, "unknown interconnect '" + interconnect + "'");
  }
  if (!take_number(root, "link_read_occupancy", &t.link_read_occupancy,
                   error) ||
      !take_number(root, "link_write_occupancy", &t.link_write_occupancy,
                   error)) {
    return false;
  }
  std::uint64_t remote = 0;
  if (root.find("remote_node_extra_latency") != nullptr &&
      !take_u64(root, "remote_node_extra_latency", &remote, error)) {
    return false;
  }
  t.remote_node_extra_latency = remote;

  const JsonValue* levels = root.find("levels");
  if (levels == nullptr || !levels->is_array()) {
    return fail(error, "missing 'levels' array");
  }
  for (const JsonValue& lvj : levels->items) {
    if (!lvj.is_object()) {
      return fail(error, "each level must be an object");
    }
    TopoCacheLevel lv;
    std::uint64_t size = 0, line = 0, ways = 0, latency = 0;
    std::string scope;
    if (!take_string(lvj, "name", &lv.name, error) ||
        !take_u64(lvj, "size_bytes", &size, error) ||
        !take_u64(lvj, "line_bytes", &line, error) ||
        !take_u64(lvj, "ways", &ways, error) ||
        !take_string(lvj, "scope", &scope, error) ||
        !take_u64(lvj, "latency", &latency, error)) {
      return false;
    }
    lv.geometry.size_bytes = static_cast<std::size_t>(size);
    lv.geometry.line_bytes = static_cast<std::size_t>(line);
    lv.geometry.ways = static_cast<std::size_t>(ways);
    lv.latency = latency;
    if (!parse_scope(scope, &lv.scope)) {
      return fail(error, "level '" + lv.name + "': unknown scope '" + scope +
                             "' (want context|core|chip)");
    }
    t.levels.push_back(std::move(lv));
  }

  const JsonValue* nodes = root.find("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    return fail(error, "missing 'nodes' array");
  }
  for (const JsonValue& nj : nodes->items) {
    if (!nj.is_object()) {
      return fail(error, "each node must be an object");
    }
    MemNode node;
    std::uint64_t latency = 0;
    if (!take_u64(nj, "latency", &latency, error) ||
        !take_number(nj, "read_occupancy", &node.read_occupancy, error) ||
        !take_number(nj, "write_occupancy", &node.write_occupancy, error)) {
      return false;
    }
    node.latency = latency;
    const JsonValue* homes = nj.find("home_packages");
    if (homes == nullptr || !homes->is_array()) {
      return fail(error, "node missing 'home_packages' array");
    }
    node.home_packages.clear();
    for (const JsonValue& hp : homes->items) {
      int p = 0;
      if (!as_int(hp, &p)) {
        return fail(error, "home_packages entries must be integers");
      }
      node.home_packages.push_back(p);
    }
    t.nodes.push_back(std::move(node));
  }

  if (!t.validate(error)) return false;
  *out = std::move(t);
  return true;
}

// ---------------------------------------------------------------------------
// Presets.

Topology Topology::paxville() {
  // The paper's machine (Section 3), calibrated against its LMbench anchors
  // at 2.8 GHz: two dual-core Hyper-Threaded packages, each core with a
  // 16 KB L1D and a private 2 MB L2, one front-side bus per package into a
  // single shared memory controller.
  Topology t;
  t.name = "paxville";
  t.packages = 2;
  t.cores_per_package = 2;
  t.smt_per_core = 2;
  t.interconnect = Interconnect::kSharedFsb;
  // FSB occupancy per 64-byte line: one package streams 3.57 GB/s = 1.275
  // B/cycle -> 50.2 cycles/line.  A stored stream moves two lines per line
  // of data (read-for-ownership plus the eventual writeback), which is why
  // the paper measures write bandwidth at about half of read (1.77 GB/s).
  t.link_read_occupancy = 50.2;
  t.link_write_occupancy = 50.2;
  t.remote_node_extra_latency = 0;
  t.levels = {
      // L1 load-to-use 1.43 ns -> 4 cycles; L2 10.6 ns -> 30 cycles.
      {"L1D", CacheGeometry{16 * 1024, 64, 8}, SharingScope::kPerCore, 4},
      {"L2", CacheGeometry{2 * 1024 * 1024, 64, 8}, SharingScope::kPerCore,
       30},
  };
  // DRAM 136.85 ns -> 383 cycles.  The controller's read occupancy sets the
  // two-package aggregate read bandwidth (4.43 GB/s -> 40.4 cycles/line);
  // its write occupancy makes the two-package write bandwidth (RFO read +
  // writeback per line: 64 B / (40.4 + 28.4) cycles) the paper's 2.60 GB/s.
  t.nodes = {{383, 40.4, 28.4, {0, 1}}};
  return t;
}

Topology Topology::paxville_noht() {
  Topology t = paxville();
  t.name = "paxville-noht";
  t.smt_per_core = 1;
  return t;
}

Topology Topology::woodcrest() {
  // A Core-microarchitecture contrast machine: two dual-core packages whose
  // cores share one fast 4 MB L2, no SMT, a quicker FSB and DRAM path.  The
  // interesting inversion vs. Paxville: intra-package sharing happens in
  // cache instead of on the bus.
  Topology t;
  t.name = "woodcrest";
  t.packages = 2;
  t.cores_per_package = 2;
  t.smt_per_core = 1;
  t.interconnect = Interconnect::kSharedFsb;
  t.link_read_occupancy = 30.0;
  t.link_write_occupancy = 30.0;
  t.remote_node_extra_latency = 0;
  t.levels = {
      {"L1D", CacheGeometry{32 * 1024, 64, 8}, SharingScope::kPerCore, 3},
      {"L2", CacheGeometry{4 * 1024 * 1024, 64, 16}, SharingScope::kPerChip,
       14},
  };
  t.nodes = {{250, 30.0, 20.0, {0, 1}}};
  return t;
}

Topology Topology::numa16() {
  // A 4-socket point-to-point NUMA box, 4 cores per socket, private L2 plus
  // a chip-shared L3, one memory node per socket.  Remote accesses pay the
  // link hop; the paper's single-FSB bandwidth wall disappears and is
  // replaced by locality sensitivity.
  Topology t;
  t.name = "numa16";
  t.packages = 4;
  t.cores_per_package = 4;
  t.smt_per_core = 1;
  t.interconnect = Interconnect::kPointToPoint;
  t.link_read_occupancy = 20.0;
  t.link_write_occupancy = 15.0;
  t.remote_node_extra_latency = 120;
  t.levels = {
      {"L1D", CacheGeometry{32 * 1024, 64, 8}, SharingScope::kPerCore, 4},
      {"L2", CacheGeometry{512 * 1024, 64, 8}, SharingScope::kPerCore, 12},
      {"L3", CacheGeometry{8 * 1024 * 1024, 64, 16}, SharingScope::kPerChip,
       40},
  };
  t.nodes = {
      {200, 20.0, 14.0, {0}},
      {200, 20.0, 14.0, {1}},
      {200, 20.0, 14.0, {2}},
      {200, 20.0, 14.0, {3}},
  };
  return t;
}

std::optional<Topology> Topology::from_preset(std::string_view name) {
  if (name == "paxville") return paxville();
  if (name == "paxville-noht") return paxville_noht();
  if (name == "woodcrest") return woodcrest();
  if (name == "numa16") return numa16();
  return std::nullopt;
}

const std::vector<std::string>& Topology::preset_names() {
  static const std::vector<std::string> names = {
      "paxville", "paxville-noht", "woodcrest", "numa16"};
  return names;
}

bool Topology::resolve(const std::string& spec, Topology* out,
                       std::string* error) {
  std::optional<Topology> topo = from_preset(spec);
  if (!topo.has_value()) {
    std::ifstream f(spec);
    if (!f) {
      std::string presets;
      for (const std::string& p : preset_names()) {
        if (!presets.empty()) presets += ' ';
        presets += p;
      }
      return fail(error, "'" + spec + "' is not a preset [" + presets +
                             "] and not a readable file");
    }
    std::stringstream ss;
    ss << f.rdbuf();
    Topology parsed;
    std::string why;
    if (!parse_json(ss.str(), &parsed, &why)) {
      return fail(error, "'" + spec + "': " + why);
    }
    topo = std::move(parsed);
  }
  std::string why;
  if (!topo->validate_for_sim(&why)) {
    return fail(error, "'" + spec + "': " + why);
  }
  *out = std::move(*topo);
  return true;
}

}  // namespace paxsim::sim
