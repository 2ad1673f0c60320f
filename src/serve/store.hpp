// paxsim/serve/store.hpp
//
// The on-disk content-addressed result store — the persistence layer of
// paxserve.  Every previously answered (kernel, machine, placement, mode)
// question becomes O(1): the ExperimentEngine consults the store before
// simulating and writes every freshly computed cell through.
//
// Addressing.  An entry's name is harness::cell_digest() of the explicit
// versioned harness::cell_fingerprint() serialization of its CellKey —
// never of in-memory struct layout — so stores written by different
// binaries, compilers and hosts interoperate.  The full fingerprint string
// is recorded inside each entry and re-verified on load, so even a digest
// collision cannot alias two cells.
//
// Layout (all under one root directory):
//   paxstore.json                     version marker (store format +
//                                     fingerprint version + JSON schema)
//   objects/<2 hex>/<30 hex>.json     one entry per cell, sharded by the
//                                     first digest byte
//   objects/.../<name>.json.quarantined   corrupted entries set aside by
//                                     load/verify; never read again
//   tmp/                              in-flight writes (unique names)
//
// Concurrency.  Writers are shared-nothing: an entry is serialized to a
// unique file under tmp/ and atomically rename(2)d into place over whatever
// file holds its name.  Two processes racing on the same cell both compute
// the identical deterministic bytes, so the last rename wins and changes
// nothing — the store mediates cross-process dedup without locks.  The same
// rename replaces an entry of another store format, which load rejects.
//
// Values are the versioned JSON report envelope ({"schema_version":N,
// "kind":"stored_cell"}) written through report::Json; doubles that must
// survive bit-exactly (wall cycles, prediction fields) are stored as their
// IEEE-754 bit patterns next to a human-readable rendering.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness/engine.hpp"
#include "model/predict.hpp"
#include "report/parse.hpp"

namespace paxsim::serve {

/// Format version of the store layout + entry envelope.  A store created
/// with a different version refuses to open; entries stamped with a
/// different version are rejected on load (treated as absent, so the cell
/// is recomputed) and replaced by the recomputed entry's commit.
inline constexpr int kStoreFormatVersion = 1;

/// What a directory scan found (the `paxsim store stat` payload).
struct StoreScan {
  std::uint64_t entries = 0;      ///< committed objects
  std::uint64_t bytes = 0;        ///< total committed object bytes
  std::uint64_t quarantined = 0;  ///< entries set aside as corrupt
  std::uint64_t tmp_files = 0;    ///< leftover in-flight writes
};

/// Per-handle operation counters (process-local, not persisted).
struct StoreCounters {
  std::uint64_t loads = 0;         ///< load attempts
  std::uint64_t load_hits = 0;     ///< loads answered
  std::uint64_t load_rejects = 0;  ///< version/fingerprint rejections
  std::uint64_t writes = 0;        ///< entries committed by this handle
  std::uint64_t quarantines = 0;   ///< corrupt entries set aside
};

/// The payload an entry of @p kind stores: "single", "pair" or
/// "prediction" (the `payload` field of entries and serve progress lines).
[[nodiscard]] const char* payload_name(harness::CellKey::Kind kind);

/// One `paxsim store ls` row.
struct StoreEntry {
  std::string digest;       ///< 32-hex object name
  std::string payload;      ///< "single" | "pair" | "prediction"
  std::string fingerprint;  ///< full serialized CellKey
  std::uint64_t bytes = 0;
};

/// Outcome of `paxsim store gc`.
struct GcResult {
  std::uint64_t removed_tmp = 0;
  std::uint64_t removed_quarantined = 0;
  /// Committed entries whose key CellKey::canonical() changes: no key
  /// CellKey::from mints can reach them.
  std::uint64_t removed_unreachable = 0;
};

/// Outcome of `paxsim store verify`.
struct VerifyResult {
  std::uint64_t checked = 0;
  std::uint64_t ok = 0;
  std::uint64_t version_mismatch = 0;  ///< rejected, left in place
  std::uint64_t corrupt = 0;           ///< quarantined
};

/// The on-disk store.  Thread-safe: all methods may be called from engine
/// workers concurrently; the only shared mutable state is the counter set.
class ResultStore final : public harness::CellStore {
 public:
  /// Opens (creating if needed) the store rooted at @p dir.  Throws
  /// std::runtime_error when the directory holds a store of a different
  /// format version or the layout cannot be created.
  explicit ResultStore(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  // ---- harness::CellStore --------------------------------------------------
  bool load_cell(const harness::CellKey& key,
                 harness::CellValue* out) override;
  void store_cell(const harness::CellKey& key,
                  const harness::CellValue& value) override;
  bool load_prediction(const harness::CellKey& key,
                       model::Prediction* out) override;
  void store_prediction(const harness::CellKey& key,
                        const model::Prediction& p) override;

  /// Raw committed entry text by 32-hex digest — the `paxsim store get`
  /// front-end.  Returns the exact bytes of the entry envelope (one JSON
  /// document); false when the digest is malformed or no entry exists.
  [[nodiscard]] bool read_object(const std::string& digest,
                                 std::string* payload) const;

  // ---- maintenance (the `paxsim store` subcommand) --------------------------
  [[nodiscard]] StoreScan scan() const;
  /// Every committed entry, parsed and sorted by digest.  Unparseable
  /// entries are skipped (verify() is the tool that acts on them).
  [[nodiscard]] std::vector<StoreEntry> list() const;
  /// Removes leftover tmp files, quarantined entries and unreachable
  /// entries.  An entry whose fingerprint does not parse at this binary's
  /// version stays (verify() reports it).
  GcResult gc();
  /// Re-parses every entry; quarantines corrupt ones, counts version
  /// mismatches without touching them.
  VerifyResult verify();

  [[nodiscard]] StoreCounters counters() const;

 private:
  [[nodiscard]] std::string object_path(const std::string& digest) const;
  /// Atomically commits one serialized entry, replacing any file that
  /// holds its name.
  void commit(const harness::CellKey& key, const std::string& body);
  /// Loads + validates the entry for @p key and decodes its payload into
  /// @p cell or @p prediction (read_payload).  Returns false (and bumps the
  /// right counter) on absence, version mismatch or corruption (the latter
  /// quarantines the file).
  bool load(const harness::CellKey& key, harness::CellValue* cell,
            model::Prediction* prediction);
  void quarantine(const std::string& path);

  std::string dir_;
  mutable std::mutex mu_;  ///< guards counters_ and the tmp name sequence
  StoreCounters counters_;
  std::uint64_t tmp_seq_ = 0;
};

}  // namespace paxsim::serve
