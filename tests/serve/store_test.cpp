// Store semantics tests: round-trip identity (byte-identical report JSON),
// version-mismatch rejection, corrupted-entry quarantine, two-writer dedup
// and the maintenance surface (stat/ls/gc/verify) of serve::ResultStore.
#include "serve/store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/report.hpp"

namespace paxsim::serve {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty store directory for one test.
std::string fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "paxsim_store" / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

harness::RunOptions quick_options() {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  return opt;
}

/// One simulated single cell (key + value), shared via the engine's memo
/// cache across the tests of this binary.
struct SimulatedCell {
  harness::CellKey key;
  harness::CellValue value;
};

const SimulatedCell& simulated_single() {
  static const SimulatedCell cell = [] {
    static harness::ExperimentEngine engine(1);
    const harness::RunOptions opt = quick_options();
    const harness::StudyConfig* cfg = harness::find_config("HT on -2-1");
    SimulatedCell c;
    c.key = harness::CellKey::from(npb::Benchmark::kCG, *cfg, opt, 7);
    c.value.single = engine.single(npb::Benchmark::kCG, *cfg, opt, 7);
    return c;
  }();
  return cell;
}

const SimulatedCell& simulated_pair() {
  static const SimulatedCell cell = [] {
    static harness::ExperimentEngine engine(1);
    const harness::RunOptions opt = quick_options();
    const harness::StudyConfig* cfg = harness::find_config("HT off -4-2");
    SimulatedCell c;
    c.key = harness::CellKey::from(harness::CellKey::Kind::kPair,
                                   npb::Benchmark::kCG, npb::Benchmark::kFT,
                                   *cfg, opt, 7);
    c.value.pair =
        engine.pair(npb::Benchmark::kCG, npb::Benchmark::kFT, *cfg, opt, 7);
    return c;
  }();
  return cell;
}

/// The committed object files under @p dir, sorted.
std::vector<fs::path> object_files(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& e :
       fs::recursive_directory_iterator(fs::path(dir) / "objects")) {
    if (e.is_regular_file() && e.path().extension() == ".json") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A loaded run must equal the stored one in every field the store keeps.
void expect_same_run(const harness::RunResult& want,
                     const harness::RunResult& got, const std::string& what) {
  EXPECT_EQ(want.wall_cycles, got.wall_cycles) << what;
  EXPECT_EQ(want.verified, got.verified) << what;
  EXPECT_EQ(want.counters, got.counters) << what;
  EXPECT_EQ(want.host_sim_sec, got.host_sim_sec) << what;
}

TEST(ResultStoreTest, RoundTripSingleIsByteIdentical) {
  const std::string dir = fresh_dir("roundtrip_single");
  const SimulatedCell& cell = simulated_single();
  {
    ResultStore store(dir);
    store.store_cell(cell.key, cell.value);
  }
  // A fresh handle — nothing in RAM carries over.
  ResultStore store(dir);
  harness::CellValue loaded;
  ASSERT_TRUE(store.load_cell(cell.key, &loaded));

  // Doubles survive via their bit patterns, counters exactly.
  expect_same_run(cell.value.single, loaded.single, "single");
}

TEST(ResultStoreTest, RoundTripPairIsByteIdentical) {
  const std::string dir = fresh_dir("roundtrip_pair");
  const SimulatedCell& cell = simulated_pair();
  ResultStore store(dir);
  store.store_cell(cell.key, cell.value);
  harness::CellValue loaded;
  ASSERT_TRUE(store.load_cell(cell.key, &loaded));
  for (int p = 0; p < 2; ++p) {
    expect_same_run(cell.value.pair.program[p], loaded.pair.program[p],
                    "program " + std::to_string(p));
  }
}

TEST(ResultStoreTest, RoundTripPredictionIsBitExact) {
  const std::string dir = fresh_dir("roundtrip_prediction");
  static harness::ExperimentEngine engine(1);
  const harness::RunOptions opt = quick_options();
  const harness::StudyConfig* cfg = harness::find_config("HT on -8-2");
  const model::Prediction p =
      engine.predict(npb::Benchmark::kMG, *cfg, opt, 7).prediction;
  const harness::CellKey key =
      harness::CellKey::from(harness::CellKey::Kind::kPredict,
                             npb::Benchmark::kMG, npb::Benchmark::kMG, *cfg,
                             opt, 7);
  ResultStore store(dir);
  store.store_prediction(key, p);
  model::Prediction loaded;
  ASSERT_TRUE(store.load_prediction(key, &loaded));
  std::ostringstream expect, got;
  harness::print_prediction_json(expect, "MG", cfg->name, p);
  harness::print_prediction_json(got, "MG", cfg->name, loaded);
  EXPECT_EQ(expect.str(), got.str());
  EXPECT_EQ(p.wall_cycles, loaded.wall_cycles);
  EXPECT_EQ(p.speedup, loaded.speedup);
  EXPECT_EQ(p.mc_utilization, loaded.mc_utilization);
}

TEST(ResultStoreTest, AbsentCellIsAMiss) {
  const std::string dir = fresh_dir("absent");
  ResultStore store(dir);
  harness::CellValue out;
  EXPECT_FALSE(store.load_cell(simulated_single().key, &out));
  EXPECT_EQ(store.counters().loads, 1u);
  EXPECT_EQ(store.counters().load_hits, 0u);
}

TEST(ResultStoreTest, VersionMismatchRejectsWithoutQuarantine) {
  const std::string dir = fresh_dir("version_mismatch");
  const SimulatedCell& cell = simulated_single();
  ResultStore store(dir);
  store.store_cell(cell.key, cell.value);
  const std::vector<fs::path> files = object_files(dir);
  ASSERT_EQ(files.size(), 1u);
  // Re-stamp the entry as written by a future store format.
  std::string text = slurp(files[0]);
  const std::string needle = "\"store_format\":1";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"store_format\":999");
  spit(files[0], text);

  harness::CellValue out;
  EXPECT_FALSE(store.load_cell(cell.key, &out))
      << "entries of another format version must read as absent";
  EXPECT_TRUE(fs::exists(files[0]))
      << "version mismatch is not corruption; the entry stays in place";
  EXPECT_EQ(store.counters().load_rejects, 1u);
  EXPECT_EQ(store.counters().quarantines, 0u);

  const VerifyResult v = store.verify();
  EXPECT_EQ(v.checked, 1u);
  EXPECT_EQ(v.version_mismatch, 1u);
  EXPECT_EQ(v.corrupt, 0u);
}

TEST(ResultStoreTest, CorruptedEntryIsQuarantined) {
  const std::string dir = fresh_dir("corrupt");
  const SimulatedCell& cell = simulated_single();
  ResultStore store(dir);
  store.store_cell(cell.key, cell.value);
  const std::vector<fs::path> files = object_files(dir);
  ASSERT_EQ(files.size(), 1u);
  spit(files[0], slurp(files[0]).substr(0, 40));  // torn write

  harness::CellValue out;
  EXPECT_FALSE(store.load_cell(cell.key, &out));
  EXPECT_FALSE(fs::exists(files[0])) << "corrupt entries are set aside";
  EXPECT_TRUE(fs::exists(files[0].string() + ".quarantined"));
  EXPECT_EQ(store.counters().quarantines, 1u);

  // Quarantined entries are invisible: the cell now reads as absent and
  // can be recomputed + stored again.
  EXPECT_FALSE(store.load_cell(cell.key, &out));
  store.store_cell(cell.key, cell.value);
  EXPECT_TRUE(store.load_cell(cell.key, &out));
  const StoreScan s = store.scan();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.quarantined, 1u);
}

TEST(ResultStoreTest, WrongPayloadKindIsQuarantined) {
  const std::string dir = fresh_dir("wrong_payload");
  const SimulatedCell& cell = simulated_single();
  ResultStore store(dir);
  store.store_cell(cell.key, cell.value);
  // Ask for the same digest as a prediction: the entry's recorded payload
  // ("single") contradicts the request, which must not silently decode.
  model::Prediction p;
  EXPECT_FALSE(store.load_prediction(cell.key, &p));
}

TEST(ResultStoreTest, TwoWritersDedupWithoutLocks) {
  const std::string dir = fresh_dir("two_writers");
  const SimulatedCell& cell = simulated_single();
  // Two shared-nothing handles on the same directory — the process-level
  // analogue of two concurrent serve workers racing on one cell.
  ResultStore a(dir);
  ResultStore b(dir);
  a.store_cell(cell.key, cell.value);
  b.store_cell(cell.key, cell.value);
  // Both commit the identical bytes; the last rename wins and the store
  // holds one entry that either handle reads back.
  EXPECT_EQ(a.counters().writes, 1u);
  EXPECT_EQ(b.counters().writes, 1u);
  EXPECT_EQ(a.scan().entries, 1u);
  EXPECT_EQ(a.scan().tmp_files, 0u);

  for (ResultStore* handle : {&a, &b}) {
    harness::CellValue out;
    EXPECT_TRUE(handle->load_cell(cell.key, &out));
    expect_same_run(cell.value.single, out.single, "loaded back");
  }
}

TEST(ResultStoreTest, ListReportsEveryEntry) {
  const std::string dir = fresh_dir("list");
  ResultStore store(dir);
  store.store_cell(simulated_single().key, simulated_single().value);
  store.store_cell(simulated_pair().key, simulated_pair().value);
  const std::vector<StoreEntry> rows = store.list();
  ASSERT_EQ(rows.size(), 2u);
  for (const StoreEntry& e : rows) {
    EXPECT_EQ(e.digest.size(), 32u);
    EXPECT_TRUE(e.payload == "single" || e.payload == "pair") << e.payload;
    EXPECT_EQ(e.fingerprint.rfind("cellkey-v2;", 0), 0u);
    EXPECT_GT(e.bytes, 0u);
  }
  EXPECT_NE(rows[0].digest, rows[1].digest);
}

TEST(ResultStoreTest, GcSweepsTmpAndQuarantine) {
  const std::string dir = fresh_dir("gc");
  const SimulatedCell& cell = simulated_single();
  ResultStore store(dir);
  store.store_cell(cell.key, cell.value);
  // A leftover in-flight write (killed worker) and a quarantined entry.
  spit(fs::path(dir) / "tmp" / "deadbeef.1234.0.tmp", "partial");
  const std::vector<fs::path> files = object_files(dir);
  ASSERT_EQ(files.size(), 1u);
  spit(files[0], "junk");
  harness::CellValue out;
  EXPECT_FALSE(store.load_cell(cell.key, &out));  // quarantines

  const StoreScan before = store.scan();
  EXPECT_EQ(before.tmp_files, 1u);
  EXPECT_EQ(before.quarantined, 1u);
  const GcResult gc = store.gc();
  EXPECT_EQ(gc.removed_tmp, 1u);
  EXPECT_EQ(gc.removed_quarantined, 1u);
  const StoreScan after = store.scan();
  EXPECT_EQ(after.tmp_files, 0u);
  EXPECT_EQ(after.quarantined, 0u);
  EXPECT_EQ(after.entries, 0u);
}

TEST(ResultStoreTest, GcRemovesEntriesNoKeyCanReach) {
  const std::string dir = fresh_dir("gc_unreachable");
  const harness::CellValue& value = simulated_single().value;
  const harness::RunOptions opt = quick_options();
  const harness::StudyConfig& serial = harness::serial_config();
  const std::uint64_t trial1 = opt.trial_seed(1);
  // Filed as a store written before from() moved every MG trial to the
  // default seed (MG's seed never reaches the simulator).
  harness::CellKey mg_trial1 =
      harness::CellKey::from(npb::Benchmark::kMG, serial, opt, trial1);
  const harness::CellKey mg_default = mg_trial1;
  mg_trial1.seed = trial1;
  // CG's seed does reach the simulator: its trial-1 cell is live.
  const harness::CellKey cg_trial1 =
      harness::CellKey::from(npb::Benchmark::kCG, serial, opt, trial1);
  // Filed as a store written before from() dropped a chunk beside the
  // kernel-default schedule.
  harness::CellKey chunk8 =
      harness::CellKey::from(npb::Benchmark::kEP, serial, opt, trial1);
  chunk8.sched_chunk = 8;

  ResultStore store(dir);
  for (const harness::CellKey& k : {mg_trial1, mg_default, cg_trial1, chunk8}) {
    store.store_cell(k, value);
  }
  ASSERT_EQ(store.scan().entries, 4u);
  const GcResult gc = store.gc();
  EXPECT_EQ(gc.removed_unreachable, 2u);
  EXPECT_EQ(gc.removed_tmp, 0u);
  EXPECT_EQ(gc.removed_quarantined, 0u);
  EXPECT_EQ(store.scan().entries, 2u);
  harness::CellValue out;
  EXPECT_FALSE(store.load_cell(mg_trial1, &out));
  EXPECT_TRUE(store.load_cell(mg_default, &out));
  EXPECT_TRUE(store.load_cell(cg_trial1, &out));
  EXPECT_FALSE(store.load_cell(chunk8, &out));
  EXPECT_EQ(store.gc().removed_unreachable, 0u);
}

TEST(ResultStoreTest, GcKeepsEntriesWhoseFingerprintItCannotParse) {
  const std::string dir = fresh_dir("gc_unparsed");
  harness::CellKey chunk8 = simulated_single().key;
  chunk8.sched_chunk = 8;
  ResultStore store(dir);
  store.store_cell(chunk8, simulated_single().value);
  const std::vector<fs::path> files = object_files(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string text = slurp(files[0]);
  const std::string version = "cellkey-v2;";
  const std::size_t at = text.find(version);
  ASSERT_NE(at, std::string::npos);
  // Another fingerprint version, then no fingerprint at all: verify()
  // reports such entries, and gc leaves them.
  std::string other_version = text;
  other_version.replace(at, version.size(), "cellkey-v1;");
  std::string unparsable = text;
  unparsable.replace(at, version.size(), "x");
  for (const std::string& edited : {other_version, unparsable}) {
    spit(files[0], edited);
    EXPECT_EQ(store.gc().removed_unreachable, 0u);
    EXPECT_EQ(store.scan().entries, 1u);
  }
}

TEST(ResultStoreTest, VerifyPassesACleanStore) {
  const std::string dir = fresh_dir("verify_clean");
  ResultStore store(dir);
  store.store_cell(simulated_single().key, simulated_single().value);
  store.store_cell(simulated_pair().key, simulated_pair().value);
  const VerifyResult v = store.verify();
  EXPECT_EQ(v.checked, 2u);
  EXPECT_EQ(v.ok, 2u);
  EXPECT_EQ(v.version_mismatch, 0u);
  EXPECT_EQ(v.corrupt, 0u);
}

TEST(ResultStoreTest, IncompatibleMarkerRefusesToOpen) {
  const std::string dir = fresh_dir("marker_mismatch");
  { ResultStore store(dir); }  // creates the marker
  std::string text = slurp(fs::path(dir) / "paxstore.json");
  const std::string needle = "\"store_format\":1";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"store_format\":999");
  spit(fs::path(dir) / "paxstore.json", text);
  EXPECT_THROW(ResultStore{dir}, std::runtime_error);
}

TEST(ResultStoreTest, ReopeningAnExistingStoreKeepsEntries) {
  const std::string dir = fresh_dir("reopen");
  const SimulatedCell& cell = simulated_single();
  { ResultStore(dir).store_cell(cell.key, cell.value); }
  ResultStore store(dir);
  harness::CellValue out;
  EXPECT_TRUE(store.load_cell(cell.key, &out));
  EXPECT_EQ(store.scan().entries, 1u);
}

}  // namespace
}  // namespace paxsim::serve
