// Golden tests for the explicit CellKey wire fingerprint (engine.hpp):
// the exact serialized bytes and digest of a reference key are pinned
// verbatim, so any change to field order, widths or encoding — which would
// silently alias or orphan every entry of an existing on-disk store —
// fails here with a diff instead of shipping.  Injectivity is exercised by
// flipping every CellKey field and demanding a distinct fingerprint, and
// parse_cell_fingerprint must invert the serialization exactly.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "npb/rng.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

/// The reference key of the golden strings: CG on "HT on -2-1", class S,
/// defaults otherwise.
CellKey golden_key() {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  const StudyConfig* cfg = find_config("HT on -2-1");
  return CellKey::from(npb::Benchmark::kCG, *cfg, opt, 314159265);
}

TEST(CellFingerprintTest, GoldenFingerprint) {
  // Pinned verbatim.  If this test fails, either bump
  // kCellFingerprintVersion (breaking stored-entry compatibility on
  // purpose) or revert the encoding change — never just update the string.
  // (v1 -> v2: the schedule-override fields skind/schunk joined the key.)
  EXPECT_EQ(cell_fingerprint(golden_key()),
            "cellkey-v2;kind=00;a=00;b=00;cls=00;"
            "scale=4030000000000000;seed=0000000012b9b0a1;verify=1;"
            "grain=0000000000000001;skind=ffffffffffffffff;"
            "schunk=0000000000000000;check=00;trace=00;"
            "config=0000001f:HT on -2-1|1|ht|2/1:0.0.0:0.0.1;"
            "machine=00000000:");
}

TEST(CellFingerprintTest, GoldenDigest) {
  EXPECT_EQ(cell_digest(cell_fingerprint(golden_key())),
            "0872bad47f5bd520498b319814c4caf1");
}

TEST(CellFingerprintTest, KernelDefaultScheduleIgnoresTheChunk) {
  // The runner reads the chunk only under an override, so every front end
  // must name a chunked kernel-default run by the golden key.
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.sched_chunk = 8;
  const StudyConfig* cfg = find_config("HT on -2-1");
  EXPECT_EQ(cell_fingerprint(
                CellKey::from(npb::Benchmark::kCG, *cfg, opt, 314159265)),
            cell_fingerprint(golden_key()));

  // Under an override the chunk is part of the identity.
  opt.sched_kind = 1;
  const CellKey dynamic8 =
      CellKey::from(npb::Benchmark::kCG, *cfg, opt, 314159265);
  opt.sched_chunk = 0;
  EXPECT_NE(cell_fingerprint(dynamic8),
            cell_fingerprint(
                CellKey::from(npb::Benchmark::kCG, *cfg, opt, 314159265)));
}

TEST(CellFingerprintTest, VersionStampLeadsTheSerialization) {
  ASSERT_EQ(kCellFingerprintVersion, 2);
  EXPECT_EQ(cell_fingerprint(golden_key()).rfind("cellkey-v2;", 0), 0u);
}

TEST(CellFingerprintTest, DigestIs32LowercaseHex) {
  const std::string d = cell_digest("anything");
  ASSERT_EQ(d.size(), 32u);
  for (const char c : d) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                !std::isupper(static_cast<unsigned char>(c)))
        << d;
  }
  EXPECT_NE(cell_digest("anything"), cell_digest("anything else"));
  EXPECT_EQ(cell_digest("anything"), cell_digest("anything"));
}

TEST(CellFingerprintTest, EveryFieldChangesTheFingerprint) {
  const CellKey base = golden_key();
  const std::string ref = cell_fingerprint(base);

  CellKey k = base;
  k.kind = CellKey::Kind::kPredict;
  EXPECT_NE(cell_fingerprint(k), ref) << "kind";

  k = base;
  k.a = npb::Benchmark::kMG;
  EXPECT_NE(cell_fingerprint(k), ref) << "a";

  k = base;
  k.b = npb::Benchmark::kFT;
  EXPECT_NE(cell_fingerprint(k), ref) << "b";

  k = base;
  k.config = "something else";
  EXPECT_NE(cell_fingerprint(k), ref) << "config";

  k = base;
  k.cls = npb::ProblemClass::kClassB;
  EXPECT_NE(cell_fingerprint(k), ref) << "cls";

  k = base;
  k.machine_scale = 8.0;
  EXPECT_NE(cell_fingerprint(k), ref) << "machine_scale";

  k = base;
  k.seed += 1;
  EXPECT_NE(cell_fingerprint(k), ref) << "seed";

  k = base;
  k.verify = false;
  EXPECT_NE(cell_fingerprint(k), ref) << "verify";

  k = base;
  k.grain = 4;
  EXPECT_NE(cell_fingerprint(k), ref) << "grain";

  k = base;
  k.sched_kind = 1;
  EXPECT_NE(cell_fingerprint(k), ref) << "sched_kind";

  k = base;
  k.sched_chunk = 8;
  EXPECT_NE(cell_fingerprint(k), ref) << "sched_chunk";

  k = base;
  k.machine = sim::Topology::paxville().fingerprint();
  EXPECT_NE(cell_fingerprint(k), ref) << "machine";
}

TEST(CellFingerprintTest, LengthPrefixPreventsStringAliasing) {
  // The config/machine strings are length-prefixed, so moving bytes across
  // the boundary between them can never produce the same serialization.
  // std::string("..") rather than literal assignment: GCC 12's -Wrestrict
  // misfires on the in-place replace path at -O3 (GCC PR105651).
  CellKey x = golden_key();
  CellKey y = golden_key();
  x.config = std::string("ab");
  x.machine = std::string("c");
  y.config = std::string("a");
  y.machine = std::string("bc");
  EXPECT_NE(cell_fingerprint(x), cell_fingerprint(y));
}

TEST(CellFingerprintTest, PairOrderMatters) {
  RunOptions opt;
  const StudyConfig* cfg = find_config("HT off -4-2");
  const CellKey ab = CellKey::from(CellKey::Kind::kPair, npb::Benchmark::kCG,
                                   npb::Benchmark::kFT, *cfg, opt, 1);
  const CellKey ba = CellKey::from(CellKey::Kind::kPair, npb::Benchmark::kFT,
                                   npb::Benchmark::kCG, *cfg, opt, 1);
  EXPECT_NE(cell_fingerprint(ab), cell_fingerprint(ba));
}

TEST(CellFingerprintTest, ParseInvertsTheFingerprint) {
  const CellKey base = golden_key();
  std::vector<CellKey> keys = {base};
  CellKey k = base;
  k.kind = CellKey::Kind::kPair;
  k.b = npb::Benchmark::kFT;
  keys.push_back(k);
  k = base;
  k.kind = CellKey::Kind::kPredict;
  k.a = k.b = npb::Benchmark::kRacyFlag;
  keys.push_back(k);
  k = base;
  k.cls = npb::ProblemClass::kClassB;
  k.machine_scale = 8.5;
  keys.push_back(k);
  k = base;
  k.seed = ~std::uint64_t{0};
  k.verify = false;
  k.grain = 4096;
  keys.push_back(k);
  k = base;
  k.sched_kind = 2;
  k.sched_chunk = 8;
  keys.push_back(k);
  k = base;
  k.config = std::string();
  k.machine = sim::Topology::paxville().fingerprint();
  keys.push_back(k);
  // Every field at once, including a chunk beside the kernel-default
  // schedule, which from() never mints: parsing inverts the serialization,
  // not the factory.
  k.kind = CellKey::Kind::kPair;
  k.a = npb::Benchmark::kLU;
  k.b = npb::Benchmark::kEP;
  k.cls = npb::ProblemClass::kClassW;
  k.machine_scale = 1.0;
  k.seed = 7;
  k.verify = false;
  k.grain = 3;
  k.sched_kind = -1;
  k.sched_chunk = 16;
  keys.push_back(k);
  for (const CellKey& want : keys) {
    const std::string fp = cell_fingerprint(want);
    CellKey got;
    ASSERT_TRUE(parse_cell_fingerprint(fp, &got)) << fp;
    EXPECT_TRUE(got == want) << fp;
    EXPECT_EQ(cell_fingerprint(got), fp);
  }
}

TEST(CellFingerprintTest, ParseRefusesMalformedFingerprints) {
  const std::string ref = cell_fingerprint(golden_key());
  const auto with = [&ref](const std::string& from, const std::string& to) {
    std::string s = ref;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
  };
  CellKey out = golden_key();
  out.grain = 99;
  const CellKey untouched = out;
  // Truncated anywhere, or with bytes past the end.
  for (std::size_t n = 0; n < ref.size(); ++n) {
    EXPECT_FALSE(parse_cell_fingerprint(ref.substr(0, n), &out)) << n;
  }
  EXPECT_FALSE(parse_cell_fingerprint(ref + ";", &out));
  // Bad hex: a non-hex digit, an uppercase digit, a short length prefix.
  EXPECT_FALSE(parse_cell_fingerprint(with("seed=00", "seed=0g"), &out));
  EXPECT_FALSE(parse_cell_fingerprint(with("b9b0a1", "B9B0A1"), &out));
  EXPECT_FALSE(parse_cell_fingerprint(with("0000001f:", "0000001e:"), &out));
  // Another version.
  for (const char* v : {"cellkey-v1;", "cellkey-v3;", "cellkey-v20;"}) {
    EXPECT_FALSE(parse_cell_fingerprint(with("cellkey-v2;", v), &out)) << v;
  }
  // A value cell_fingerprint never writes: the check and trace slots are
  // always 00 (no cell is checked or traced).
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {";kind=00", ";kind=03"},
           {";a=00", ";a=0a"},
           {";cls=00", ";cls=04"},
           {";verify=1", ";verify=2"},
           {";skind=ffffffffffffffff", ";skind=00000000ffffffff"},
           {";check=00", ";check=01"},
           {";check=00", ";check=04"},
           {";trace=00", ";trace=01"}}) {
    EXPECT_FALSE(parse_cell_fingerprint(with(from, to), &out)) << to;
  }
  EXPECT_TRUE(out == untouched);
  EXPECT_TRUE(parse_cell_fingerprint(ref, &out));
}

TEST(CellFingerprintTest, CanonicalAppliesBothRulesOfFrom) {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  const StudyConfig* cfg = find_config("HT on -2-1");
  // from() keys are canonical already.
  const CellKey cg = CellKey::from(npb::Benchmark::kCG, *cfg, opt, 7);
  EXPECT_TRUE(cg.canonical() == cg);
  EXPECT_EQ(cg.seed, 7u);
  // MG's seed never reaches the simulator: every seed files at the
  // default one.
  CellKey mg = CellKey::from(npb::Benchmark::kMG, *cfg, opt, 7);
  EXPECT_EQ(mg.seed, npb::kDefaultSeed);
  mg.seed = 7;
  EXPECT_EQ(mg.canonical().seed, npb::kDefaultSeed);
  // A chunk beside the kernel-default schedule drops; beside an override
  // it stays.
  CellKey chunked = cg;
  chunked.sched_chunk = 8;
  EXPECT_TRUE(chunked.canonical() == cg);
  chunked.sched_kind = 1;
  EXPECT_TRUE(chunked.canonical() == chunked);
}

}  // namespace
}  // namespace paxsim::harness
