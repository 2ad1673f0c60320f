// paxsim/check/race_detector.hpp
//
// FastTrack-style happens-before data-race detector over simulated memory.
//
// Granularity: the shadow state is per 4-byte word (addr >> 2), which keeps
// adjacent array elements written by different threads from reporting as
// races; same-line/different-word interleavings are tracked separately as
// false-sharing statistics (they are a performance event, not a bug).
//
// The detector is deliberately independent of the Checker so the state
// machine is unit-testable on a bare event sequence: callers feed dense
// thread ids plus the synchronization vocabulary (acquire/release on a lock
// address, all-to-all barriers) and read back capped, deduplicated race
// records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/vector_clock.hpp"
#include "sim/types.hpp"

namespace paxsim::check {

/// What the detector remembers about one access, for reporting.
struct AccessRecord {
  int tid = -1;               ///< dense thread id
  sim::LogicalCpu cpu{};      ///< hardware context that executed it
  int slot = 0;               ///< its context number (Topology::flat)
  sim::BlockId block = 0;     ///< code block fetched last (the "racy PC")
  double vtime = 0;           ///< virtual time of the access
};

/// One reported race: two accesses to the same word, at least one a store,
/// unordered by happens-before.
struct RaceRecord {
  enum class Kind : std::uint8_t { kWriteWrite, kReadWrite, kWriteRead };
  Kind kind = Kind::kWriteWrite;
  sim::Addr addr = 0;         ///< word-aligned byte address
  AccessRecord prior;         ///< the older of the two conflicting accesses
  AccessRecord current;       ///< the access that exposed the race
};

[[nodiscard]] const char* race_kind_name(RaceRecord::Kind k) noexcept;

/// The detector.  All addresses are byte addresses; words are addr >> 2.
class RaceDetector {
 public:
  /// @param max_records  cap on retained RaceRecords (total counts keep
  ///        accumulating past it).
  explicit RaceDetector(std::size_t max_records = 32)
      : max_records_(max_records) {}

  /// Declares [base, base+bytes) exempt from race checking (runtime-internal
  /// synchronization storage modelling atomic hardware operations).
  void add_exempt_range(sim::Addr base, std::size_t bytes);

  /// True if @p addr falls in an exempt range.
  [[nodiscard]] bool exempt(sim::Addr addr) const noexcept;

  /// One data access by thread @p tid.  @p rec carries reporting metadata;
  /// rec.tid is overwritten with @p tid.
  void on_access(int tid, sim::Addr addr, bool is_store, AccessRecord rec);

  /// Lock-ordering edges: acquire joins the lock's clock into the thread's;
  /// release publishes the thread's clock into the lock's and advances the
  /// releaser (FastTrack's rel/acq rule).
  void on_acquire(int tid, sim::Addr lock);
  void on_release(int tid, sim::Addr lock);

  /// All-to-all join across @p tids (fork / barrier / join all synchronise
  /// every member clock), then each member advances its own component.
  void on_barrier(const int* tids, std::size_t count);

  /// The logical thread @p tid keeps its clock; nothing to do beyond what
  /// the Checker's context remapping already did.  Present for symmetry.
  void on_thread_moved(int tid);

  /// Ensures @p tid has a clock (threads appear lazily).
  void ensure_thread(int tid);

  // ---- results -------------------------------------------------------------
  [[nodiscard]] const std::vector<RaceRecord>& races() const noexcept {
    return races_;
  }
  /// Every race observation, including ones past the record cap and repeat
  /// races on an already-reported word.
  [[nodiscard]] std::uint64_t races_total() const noexcept {
    return races_total_;
  }
  /// Distinct words with at least one race.
  [[nodiscard]] std::uint64_t racy_words() const noexcept {
    return racy_words_.size();
  }
  /// Same-line/different-word accesses from different threads with a store
  /// involved — false-sharing (line ping-pong) candidates, not races.
  [[nodiscard]] std::uint64_t line_conflicts() const noexcept {
    return line_conflicts_;
  }
  /// Distinct lines with at least one such conflict.
  [[nodiscard]] std::uint64_t conflicted_lines() const noexcept {
    return conflicted_lines_;
  }

 private:
  /// Per-word FastTrack shadow state.
  struct VarState {
    Epoch w = kEpochNone;  ///< last write epoch
    Epoch r = kEpochNone;  ///< last read epoch (unused once shared)
    bool shared = false;   ///< reads promoted to a full vector clock
    VectorClock rvc;       ///< read clock when shared
    AccessRecord last_write;
    AccessRecord last_read;                ///< exclusive-read metadata
    std::vector<AccessRecord> shared_reads;  ///< per-tid metadata when shared
  };

  /// Last-toucher state of one cache line, for false-sharing accounting.
  struct LineTouch {
    int tid = -1;
    sim::Addr word = 0;
    bool store = false;
    bool counted = false;  ///< line already in conflicted_lines_
  };

  void report(RaceRecord::Kind kind, sim::Addr word_addr,
              const AccessRecord& prior, const AccessRecord& current);
  void note_line(int tid, sim::Addr addr, bool is_store);

  std::size_t max_records_;
  std::vector<VectorClock> clocks_;
  std::unordered_map<sim::Addr, VectorClock> lock_clocks_;
  std::unordered_map<sim::Addr, VarState> words_;
  std::unordered_map<sim::Addr, LineTouch> lines_;
  std::vector<std::pair<sim::Addr, sim::Addr>> exempt_;  // [base, end)

  std::vector<RaceRecord> races_;
  std::unordered_set<sim::Addr> racy_words_;
  std::unordered_set<sim::Addr> reported_;  // word_addr | kind dedup keys
  std::uint64_t races_total_ = 0;
  std::uint64_t line_conflicts_ = 0;
  std::uint64_t conflicted_lines_ = 0;
};

}  // namespace paxsim::check
