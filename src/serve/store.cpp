// paxsim/serve/store.cpp
#include "serve/store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perf/metrics.hpp"
#include "report/json.hpp"

namespace fs = std::filesystem;

namespace paxsim::serve {
namespace {

constexpr const char* kMarkerName = "paxstore.json";
constexpr const char* kQuarantineSuffix = ".quarantined";

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// A double field stored losslessly: "<name>" carries the human-readable
/// rendering, "<name>_bits" the exact IEEE-754 pattern load reads back.
void write_exact_double(report::Json& j, std::string_view name, double v) {
  j.field(name, v);
  j.field(std::string(name) + "_bits", double_bits(v));
}

bool read_exact_double(const report::JsonValue& obj, std::string_view name,
                       double* out) {
  const report::JsonValue* bits = obj.find(std::string(name) + "_bits");
  std::uint64_t b = 0;
  if (bits == nullptr || !bits->as_u64(&b)) return false;
  *out = bits_double(b);
  return true;
}

void write_run_result(report::Json& j, const harness::RunResult& r) {
  j.object();
  write_exact_double(j, "wall_cycles", r.wall_cycles);
  write_exact_double(j, "host_sim_sec", r.host_sim_sec);
  j.field("verified", r.verified);
  j.key("counters").object();
  for (std::size_t e = 0; e < perf::kEventCount; ++e) {
    const auto ev = static_cast<perf::Event>(e);
    j.field(perf::event_name(ev), r.counters.get(ev));
  }
  j.end();
  j.end();
}

/// Strict reconstruction: every known counter must be present and no
/// unknown counter may appear, so event-set skew between the writing and
/// reading binaries reads as a version mismatch, never as silent zeros.
/// Metrics are re-derived from the counters — the exact function of them
/// the simulation itself used.
bool read_run_result(const report::JsonValue& obj, harness::RunResult* out) {
  *out = harness::RunResult{};
  if (!read_exact_double(obj, "wall_cycles", &out->wall_cycles)) return false;
  if (!read_exact_double(obj, "host_sim_sec", &out->host_sim_sec)) {
    return false;
  }
  const report::JsonValue* verified = obj.find("verified");
  if (verified == nullptr || !verified->is_bool()) return false;
  out->verified = verified->boolean;
  const report::JsonValue* counters = obj.find("counters");
  if (counters == nullptr || !counters->is_object() ||
      counters->members.size() != perf::kEventCount) {
    return false;
  }
  for (std::size_t e = 0; e < perf::kEventCount; ++e) {
    const auto ev = static_cast<perf::Event>(e);
    const report::JsonValue* v = counters->find(perf::event_name(ev));
    std::uint64_t count = 0;
    if (v == nullptr || !v->as_u64(&count)) return false;
    out->counters.add(ev, count);
  }
  out->metrics = perf::derive_metrics(out->counters);
  return true;
}

/// The model::Prediction fields, serialized exactly.  Names are the struct
/// member names; the metrics bundle reuses the perf metric column names.
struct PredField {
  const char* name;
  double model::Prediction::* member;
};

constexpr PredField kPredFields[] = {
    {"wall_cycles", &model::Prediction::wall_cycles},
    {"serial_wall_cycles", &model::Prediction::serial_wall_cycles},
    {"speedup", &model::Prediction::speedup},
    {"cycles", &model::Prediction::cycles},
    {"instructions", &model::Prediction::instructions},
    {"l1d_refs", &model::Prediction::l1d_refs},
    {"l1d_misses", &model::Prediction::l1d_misses},
    {"l2_refs", &model::Prediction::l2_refs},
    {"l2_misses", &model::Prediction::l2_misses},
    {"tc_refs", &model::Prediction::tc_refs},
    {"tc_misses", &model::Prediction::tc_misses},
    {"itlb_refs", &model::Prediction::itlb_refs},
    {"itlb_misses", &model::Prediction::itlb_misses},
    {"dtlb_misses", &model::Prediction::dtlb_misses},
    {"branches", &model::Prediction::branches},
    {"mispredicts", &model::Prediction::mispredicts},
    {"bus_reads", &model::Prediction::bus_reads},
    {"bus_writes", &model::Prediction::bus_writes},
    {"bus_prefetches", &model::Prediction::bus_prefetches},
    {"coherence_transfers", &model::Prediction::coherence_transfers},
    {"stall_mem", &model::Prediction::stall_mem},
    {"stall_fe", &model::Prediction::stall_fe},
    {"stall_tlb", &model::Prediction::stall_tlb},
    {"stall_branch", &model::Prediction::stall_branch},
    {"mc_utilization", &model::Prediction::mc_utilization},
};

struct MetricField {
  const char* name;
  double perf::Metrics::* member;
};

constexpr MetricField kMetricFields[] = {
    {"l1d_miss_rate", &perf::Metrics::l1d_miss_rate},
    {"l2_miss_rate", &perf::Metrics::l2_miss_rate},
    {"trace_cache_miss_rate", &perf::Metrics::trace_cache_miss_rate},
    {"itlb_miss_rate", &perf::Metrics::itlb_miss_rate},
    {"dtlb_misses", &perf::Metrics::dtlb_misses},
    {"stalled_fraction", &perf::Metrics::stalled_fraction},
    {"branch_prediction_rate", &perf::Metrics::branch_prediction_rate},
    {"prefetch_bus_fraction", &perf::Metrics::prefetch_bus_fraction},
    {"cpi", &perf::Metrics::cpi},
};

void write_prediction(report::Json& j, const model::Prediction& p) {
  j.object();
  for (const PredField& f : kPredFields) {
    write_exact_double(j, f.name, p.*(f.member));
  }
  j.key("metrics").object();
  for (const MetricField& f : kMetricFields) {
    write_exact_double(j, f.name, p.metrics.*(f.member));
  }
  j.end();
  j.end();
}

bool read_prediction(const report::JsonValue& obj, model::Prediction* out) {
  *out = model::Prediction{};
  for (const PredField& f : kPredFields) {
    if (!read_exact_double(obj, f.name, &(out->*(f.member)))) return false;
  }
  const report::JsonValue* metrics = obj.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return false;
  for (const MetricField& f : kMetricFields) {
    if (!read_exact_double(*metrics, f.name, &(out->metrics.*(f.member)))) {
      return false;
    }
  }
  return true;
}

/// Envelope check shared by load and verify: schema/store/fingerprint
/// versions must all match this binary's.  Returns false on mismatch
/// (*corrupt stays false) or malformed envelope (*corrupt set).
bool envelope_ok(const report::JsonValue& doc, bool* corrupt) {
  *corrupt = false;
  if (!doc.is_object() || doc.string_or("kind", "") != "stored_cell") {
    *corrupt = true;
    return false;
  }
  std::uint64_t schema = 0, format = 0, fpv = 0;
  const report::JsonValue* s = doc.find("schema_version");
  const report::JsonValue* f = doc.find("store_format");
  const report::JsonValue* v = doc.find("fingerprint_version");
  if (s == nullptr || !s->as_u64(&schema) || f == nullptr ||
      !f->as_u64(&format) || v == nullptr || !v->as_u64(&fpv)) {
    *corrupt = true;
    return false;
  }
  return schema == static_cast<std::uint64_t>(report::kSchemaVersion) &&
         format == static_cast<std::uint64_t>(kStoreFormatVersion) &&
         fpv == static_cast<std::uint64_t>(harness::kCellFingerprintVersion);
}

/// The one payload reader, behind load and verify alike: decodes @p doc's
/// payload of @p kind into @p cell (single and pair entries) or
/// @p prediction (prediction entries).  False when the payload does not
/// parse under that shape, or when the output it needs is null.
bool read_payload(const report::JsonValue& doc, harness::CellKey::Kind kind,
                  harness::CellValue* cell, model::Prediction* prediction) {
  switch (kind) {
    case harness::CellKey::Kind::kSingle: {
      const report::JsonValue* single = doc.find("single");
      if (cell == nullptr || single == nullptr) return false;
      *cell = harness::CellValue{};
      return read_run_result(*single, &cell->single);
    }
    case harness::CellKey::Kind::kPair: {
      const report::JsonValue* pair = doc.find("pair");
      const report::JsonValue* programs =
          pair != nullptr ? pair->find("program") : nullptr;
      if (cell == nullptr || programs == nullptr || !programs->is_array() ||
          programs->items.size() != 2) {
        return false;
      }
      *cell = harness::CellValue{};
      return read_run_result(programs->items[0], &cell->pair.program[0]) &&
             read_run_result(programs->items[1], &cell->pair.program[1]);
    }
    case harness::CellKey::Kind::kPredict: {
      const report::JsonValue* pred = doc.find("prediction");
      return prediction != nullptr && pred != nullptr &&
             read_prediction(*pred, prediction);
    }
  }
  return false;
}

bool read_file(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return in.good() || in.eof();
}

}  // namespace

const char* payload_name(harness::CellKey::Kind kind) {
  switch (kind) {
    case harness::CellKey::Kind::kSingle: return "single";
    case harness::CellKey::Kind::kPair: return "pair";
    case harness::CellKey::Kind::kPredict: return "prediction";
  }
  return "single";
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  fs::create_directories(fs::path(dir_) / "tmp", ec);
  if (ec) {
    throw std::runtime_error("paxserve: cannot create store layout under '" +
                             dir_ + "': " + ec.message());
  }
  const fs::path marker = fs::path(dir_) / kMarkerName;
  std::string text;
  if (read_file(marker, &text)) {
    report::JsonValue doc;
    std::uint64_t format = 0;
    const bool parsed = report::parse_json_value(text, &doc);
    const report::JsonValue* f = parsed ? doc.find("store_format") : nullptr;
    if (!parsed || f == nullptr || !f->as_u64(&format) ||
        format != static_cast<std::uint64_t>(kStoreFormatVersion)) {
      throw std::runtime_error(
          "paxserve: '" + dir_ +
          "' holds a store of an incompatible format version (want " +
          std::to_string(kStoreFormatVersion) + ")");
    }
    return;
  }
  // Fresh store: commit the marker through the same tmp+rename discipline
  // as entries, so two processes opening a new store concurrently are fine.
  std::ostringstream body;
  report::Json j(body);
  j.begin_document("store_marker")
      .field("store_format", kStoreFormatVersion)
      .field("fingerprint_version", harness::kCellFingerprintVersion);
  j.finish();
  const fs::path tmp = fs::path(dir_) / "tmp" / "marker.tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out << body.str();
  out.close();
  if (!out) {
    throw std::runtime_error("paxserve: cannot write store marker in '" +
                             dir_ + "'");
  }
  fs::rename(tmp, marker, ec);
  if (ec && !fs::exists(marker)) {
    throw std::runtime_error("paxserve: cannot commit store marker in '" +
                             dir_ + "': " + ec.message());
  }
}

std::string ResultStore::object_path(const std::string& digest) const {
  return (fs::path(dir_) / "objects" / digest.substr(0, 2) /
          (digest.substr(2) + ".json"))
      .string();
}

bool ResultStore::read_object(const std::string& digest,
                              std::string* payload) const {
  if (digest.size() != 32) return false;
  for (const char c : digest) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return read_file(object_path(digest), payload);
}

void ResultStore::quarantine(const std::string& path) {
  std::error_code ec;
  fs::rename(path, path + kQuarantineSuffix, ec);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.quarantines;
}

bool ResultStore::load(const harness::CellKey& key, harness::CellValue* cell,
                       model::Prediction* prediction) {
  const std::string fingerprint = harness::cell_fingerprint(key);
  const std::string path = object_path(harness::cell_digest(fingerprint));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.loads;
  }
  std::string text;
  if (!fs::exists(path)) return false;
  if (!read_file(path, &text)) return false;
  bool corrupt = false;
  report::JsonValue doc;
  if (!report::parse_json_value(text, &doc)) {
    quarantine(path);
    return false;
  }
  if (!envelope_ok(doc, &corrupt)) {
    if (corrupt) {
      quarantine(path);
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.load_rejects;
    }
    return false;
  }
  // Content addressing is verified, not assumed: the entry must carry the
  // exact fingerprint its name was derived from, and the payload it names.
  if (doc.string_or("fingerprint", "") != fingerprint ||
      doc.string_or("payload", "") != payload_name(key.kind) ||
      !read_payload(doc, key.kind, cell, prediction)) {
    quarantine(path);
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.load_hits;
  return true;
}

bool ResultStore::load_cell(const harness::CellKey& key,
                            harness::CellValue* out) {
  return load(key, out, nullptr);
}

bool ResultStore::load_prediction(const harness::CellKey& key,
                                  model::Prediction* out) {
  return load(key, nullptr, out);
}

void ResultStore::commit(const harness::CellKey& key,
                         const std::string& body) {
  const std::string digest =
      harness::cell_digest(harness::cell_fingerprint(key));
  const std::string final_path = object_path(digest);
  std::error_code ec;
  fs::create_directories(fs::path(final_path).parent_path(), ec);
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = tmp_seq_++;
  }
  // Unique per (process, handle, write): concurrent writers never collide
  // on the tmp name, and rename(2) makes the commit atomic — a reader sees
  // either no entry or the whole entry, never a torn one.
  const fs::path tmp =
      fs::path(dir_) / "tmp" /
      (digest + "." + std::to_string(::getpid()) + "." + std::to_string(seq) +
       ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << body;
    out.close();
    if (!out) {
      throw std::runtime_error("paxserve: cannot write store entry " +
                               tmp.string());
    }
  }
  // rename(2) replaces whatever file holds the name: the same bytes from a
  // writer racing on this cell, or an entry this binary rejects on load
  // (another store format), which would otherwise be recomputed forever.
  fs::rename(tmp, final_path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw std::runtime_error("paxserve: cannot commit store entry for " +
                             final_path + ": " + ec.message());
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.writes;
}

namespace {

/// Entry head shared by every payload: envelope versions + the verified
/// fingerprint.
void begin_entry(report::Json& j, const harness::CellKey& key) {
  j.begin_document("stored_cell")
      .field("store_format", kStoreFormatVersion)
      .field("fingerprint_version", harness::kCellFingerprintVersion)
      .field("fingerprint", harness::cell_fingerprint(key))
      .field("payload", payload_name(key.kind));
}

}  // namespace

void ResultStore::store_cell(const harness::CellKey& key,
                             const harness::CellValue& value) {
  std::ostringstream body;
  report::Json j(body);
  begin_entry(j, key);
  if (key.kind == harness::CellKey::Kind::kSingle) {
    j.key("single");
    write_run_result(j, value.single);
  } else {
    j.key("pair").object().key("program").array();
    write_run_result(j, value.pair.program[0]);
    write_run_result(j, value.pair.program[1]);
    j.end().end();
  }
  j.finish();
  commit(key, body.str());
}

void ResultStore::store_prediction(const harness::CellKey& key,
                                   const model::Prediction& p) {
  std::ostringstream body;
  report::Json j(body);
  begin_entry(j, key);
  j.key("prediction");
  write_prediction(j, p);
  j.finish();
  commit(key, body.str());
}

namespace {

/// Collects committed/quarantined object paths, sorted so every consumer
/// (scan, ls, verify) walks the store in one deterministic order.
struct ObjectWalk {
  std::vector<std::string> committed;
  std::vector<std::string> quarantined;
};

ObjectWalk walk_objects(const std::string& dir) {
  ObjectWalk w;
  const fs::path root = fs::path(dir) / "objects";
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string p = it->path().string();
    if (p.size() > std::strlen(kQuarantineSuffix) &&
        p.rfind(kQuarantineSuffix) == p.size() -
                                          std::strlen(kQuarantineSuffix)) {
      w.quarantined.push_back(p);
    } else if (it->path().extension() == ".json") {
      w.committed.push_back(p);
    }
  }
  std::sort(w.committed.begin(), w.committed.end());
  std::sort(w.quarantined.begin(), w.quarantined.end());
  return w;
}

std::vector<std::string> walk_tmp(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (fs::directory_iterator it(fs::path(dir) / "tmp", ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file()) files.push_back(it->path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

StoreScan ResultStore::scan() const {
  StoreScan s;
  const ObjectWalk w = walk_objects(dir_);
  s.entries = w.committed.size();
  s.quarantined = w.quarantined.size();
  s.tmp_files = walk_tmp(dir_).size();
  std::error_code ec;
  for (const std::string& p : w.committed) {
    s.bytes += fs::file_size(p, ec);
  }
  return s;
}

std::vector<StoreEntry> ResultStore::list() const {
  std::vector<StoreEntry> rows;
  for (const std::string& p : walk_objects(dir_).committed) {
    std::string text;
    report::JsonValue doc;
    if (!read_file(p, &text) || !report::parse_json_value(text, &doc)) {
      continue;
    }
    StoreEntry e;
    const fs::path path(p);
    e.digest = path.parent_path().filename().string() + path.stem().string();
    e.payload = doc.string_or("payload", "?");
    e.fingerprint = doc.string_or("fingerprint", "");
    e.bytes = text.size();
    rows.push_back(std::move(e));
  }
  return rows;
}

GcResult ResultStore::gc() {
  GcResult r;
  std::error_code ec;
  for (const std::string& p : walk_tmp(dir_)) {
    if (fs::remove(p, ec)) ++r.removed_tmp;
  }
  const ObjectWalk objects = walk_objects(dir_);
  for (const std::string& p : objects.quarantined) {
    if (fs::remove(p, ec)) ++r.removed_quarantined;
  }
  // An entry filed under a key from() no longer mints (a trial seed that
  // never reached the simulator, a chunk beside the kernel-default
  // schedule) is never read again.
  for (const std::string& p : objects.committed) {
    std::string text;
    report::JsonValue doc;
    harness::CellKey key;
    if (read_file(p, &text) && report::parse_json_value(text, &doc) &&
        harness::parse_cell_fingerprint(doc.string_or("fingerprint", ""),
                                        &key) &&
        key.canonical() != key && fs::remove(p, ec)) {
      ++r.removed_unreachable;
    }
  }
  return r;
}

VerifyResult ResultStore::verify() {
  VerifyResult r;
  for (const std::string& p : walk_objects(dir_).committed) {
    ++r.checked;
    std::string text;
    report::JsonValue doc;
    if (!read_file(p, &text) || !report::parse_json_value(text, &doc)) {
      quarantine(p);
      ++r.corrupt;
      continue;
    }
    bool corrupt = false;
    if (!envelope_ok(doc, &corrupt)) {
      if (corrupt) {
        quarantine(p);
        ++r.corrupt;
      } else {
        ++r.version_mismatch;
      }
      continue;
    }
    // The payload must parse under its own declared shape.
    const std::string payload = doc.string_or("payload", "");
    harness::CellValue cell;
    model::Prediction prediction;
    bool ok = false;
    for (const auto kind :
         {harness::CellKey::Kind::kSingle, harness::CellKey::Kind::kPair,
          harness::CellKey::Kind::kPredict}) {
      if (payload == payload_name(kind)) {
        ok = read_payload(doc, kind, &cell, &prediction);
      }
    }
    if (!ok) {
      quarantine(p);
      ++r.corrupt;
      continue;
    }
    ++r.ok;
  }
  return r;
}

StoreCounters ResultStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace paxsim::serve
