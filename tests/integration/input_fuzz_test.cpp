// Mutation test over every JSON input paxsim reads: topology files, serve
// job files and result-store entries.  Each starts from a document the repo
// itself writes, is mutated by a seeded generator (bit flips, byte deletes,
// inserts of JSON-significant bytes, truncation, repeated slices, and a
// 100,000-deep `[` wrap), and is fed through its real entry point.  Every
// mutant must be either accepted as a valid value or refused with a message
// (or, for the store, quarantined / counted as a version reject) — never a
// crash, a throw or a silently inconsistent result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "serve/jobs.hpp"
#include "serve/store.hpp"
#include "sim/topology.hpp"

namespace paxsim {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerDocument = 250;
constexpr std::uint64_t kSeed = 0x5eed'f022;

/// Bytes an insertion draws from: the ones that change JSON structure.
constexpr std::string_view kInsertBytes = "{}[]\":,-.0e\\";

std::size_t pick(std::mt19937_64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

/// Applies one to three random edits to @p doc.
std::string mutate(std::string doc, std::mt19937_64& rng) {
  const std::size_t edits = 1 + pick(rng, 3);
  for (std::size_t e = 0; e < edits; ++e) {
    if (doc.empty()) {
      doc.push_back(kInsertBytes[pick(rng, kInsertBytes.size())]);
      continue;
    }
    const std::size_t at = pick(rng, doc.size());
    switch (pick(rng, 5)) {
      case 0:  // flip one bit
        doc[at] = static_cast<char>(static_cast<unsigned char>(doc[at]) ^
                                    (1U << pick(rng, 8)));
        break;
      case 1: doc.erase(at, 1); break;
      case 2:
        doc.insert(at, 1, kInsertBytes[pick(rng, kInsertBytes.size())]);
        break;
      case 3: doc.resize(at); break;
      default: {  // repeat a slice of up to 64 bytes in place
        const std::size_t len = 1 + pick(rng, std::min<std::size_t>(
                                                  doc.size() - at, 64));
        doc.insert(at + len, doc.substr(at, len));
        break;
      }
    }
  }
  return doc;
}

/// The deep-nesting mutant first (a recursive reader without a depth cap
/// overflows the host stack on it), then the seeded random ones.
std::vector<std::string> mutants_of(const std::string& doc,
                                    std::uint64_t salt) {
  std::vector<std::string> out;
  out.push_back(std::string(100000, '[') + doc + std::string(100000, ']'));
  std::mt19937_64 rng(kSeed ^ salt);
  for (int i = 0; i < kMutantsPerDocument; ++i) out.push_back(mutate(doc, rng));
  return out;
}

/// A failure-message excerpt of a mutant (the deep one is 200 KB).
std::string excerpt(const std::string& doc) {
  return doc.size() <= 160 ? doc : doc.substr(0, 160) + "...";
}

TEST(InputFuzzTest, TopologyFilesAreAcceptedValidOrRefusedWithAMessage) {
  int accepted = 0, refused = 0;
  const std::vector<std::string>& presets = sim::Topology::preset_names();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const std::optional<sim::Topology> preset =
        sim::Topology::from_preset(presets[i]);
    ASSERT_TRUE(preset.has_value()) << presets[i];
    const std::string doc = preset->to_json();
    for (const std::string& m : mutants_of(doc, 10 + i)) {
      sim::Topology t;
      std::string why;
      bool ok = false;
      try {
        ok = sim::Topology::parse_json(m, &t, &why);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "threw " << e.what() << " on " << excerpt(m);
        continue;
      }
      if (!ok) {
        ++refused;
        EXPECT_FALSE(why.empty()) << "silent refusal of " << excerpt(m);
        continue;
      }
      ++accepted;
      EXPECT_TRUE(t.validate(&why)) << why << " in " << excerpt(m);
      sim::Topology back;
      ASSERT_TRUE(sim::Topology::parse_json(t.to_json(), &back, &why))
          << why << " re-reading " << t.to_json();
      EXPECT_EQ(back.fingerprint(), t.fingerprint()) << excerpt(m);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(InputFuzzTest, JobFilesAreAcceptedOrRefusedWithAMessage) {
  // The CI serve-smoke job file.
  const std::string doc =
      R"({"schema_version":1,"kind":"job_file",
 "defaults":{"class":"S","trials":1},
 "sweeps":[{"benches":["CG","MG","EP"],
            "configs":["Serial","HT on -2-1","HT off -4-2"],
            "modes":["single","predict"]}]})";
  int accepted = 0, refused = 0;
  for (const std::string& m : mutants_of(doc, 1)) {
    serve::JobPlan plan;
    std::string why;
    bool ok = false;
    try {
      ok = serve::parse_job_file(m, &plan, &why);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " on " << excerpt(m);
      continue;
    }
    if (ok) {
      ++accepted;
      EXPECT_FALSE(plan.cells.empty()) << excerpt(m);
    } else {
      ++refused;
      EXPECT_FALSE(why.empty()) << "silent refusal of " << excerpt(m);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

/// Writes one entry of @p key's kind into the empty store rooted at @p dir
/// and returns its file.  The values are made up: the store persists any
/// value, so no simulation is needed.
fs::path write_entry(serve::ResultStore& store, const fs::path& dir,
                     const harness::CellKey& key) {
  harness::CellValue value;
  for (harness::RunResult* r :
       {&value.single, &value.pair.program[0], &value.pair.program[1]}) {
    r->wall_cycles = 123456.75;
    r->host_sim_sec = 0.015625;
    r->verified = true;
    for (std::size_t e = 0; e < perf::kEventCount; ++e) {
      r->counters.add(static_cast<perf::Event>(e), 1000 * e + 7);
    }
  }
  if (key.kind == harness::CellKey::Kind::kPredict) {
    model::Prediction p;
    p.wall_cycles = 5000.5;
    p.serial_wall_cycles = 20000.25;
    p.speedup = 3.9998;
    p.metrics.cpi = 1.25;
    store.store_prediction(key, p);
  } else {
    store.store_cell(key, value);
  }
  for (const auto& e : fs::recursive_directory_iterator(dir / "objects")) {
    if (e.is_regular_file() && e.path().extension() == ".json") {
      return e.path();
    }
  }
  ADD_FAILURE() << "no entry written under " << dir;
  return {};
}

TEST(InputFuzzTest, StoreEntriesLoadOrAreQuarantinedOrRejected) {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  const harness::StudyConfig* cfg = harness::find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  using Kind = harness::CellKey::Kind;
  const harness::CellKey keys[] = {
      harness::CellKey::from(npb::Benchmark::kCG, *cfg, opt, 7),
      harness::CellKey::from(Kind::kPair, npb::Benchmark::kCG,
                             npb::Benchmark::kFT, *cfg, opt, 7),
      harness::CellKey::from(Kind::kPredict, npb::Benchmark::kMG,
                             npb::Benchmark::kMG, *cfg, opt, 7),
  };
  int loaded = 0, refused = 0;
  for (const harness::CellKey& key : keys) {
    const fs::path dir = fs::path(::testing::TempDir()) / "paxsim_input_fuzz" /
                         std::to_string(static_cast<int>(key.kind));
    fs::remove_all(dir);
    serve::ResultStore store(dir.string());
    const fs::path file = write_entry(store, dir, key);
    std::string doc;
    {
      std::ifstream in(file, std::ios::binary);
      doc.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(doc.empty());
    for (const std::string& m :
         mutants_of(doc, 100 + static_cast<std::uint64_t>(key.kind))) {
      {  // overwritten in place, as a torn or corrupted write would be
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << m;
      }
      const serve::StoreCounters before = store.counters();
      bool ok = false;
      try {
        if (key.kind == Kind::kPredict) {
          model::Prediction p;
          ok = store.load_prediction(key, &p);
        } else {
          harness::CellValue v;
          ok = store.load_cell(key, &v);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "threw " << e.what() << " on " << excerpt(m);
        continue;
      }
      const serve::StoreCounters after = store.counters();
      if (ok) {
        ++loaded;
        continue;
      }
      ++refused;
      EXPECT_TRUE(after.quarantines == before.quarantines + 1 ||
                  after.load_rejects == before.load_rejects + 1)
          << "refused without quarantine or version reject: " << excerpt(m);
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace paxsim
