// paxsim/model/reuse.hpp
//
// Reuse-distance machinery for paxmodel, the analytical predictor:
//
//   * KeyIndex — a flat open-addressing map from 64-bit keys to 32-bit
//     values (power-of-two table, linear probing, multiplicative hash, no
//     deletions), the lookup structure behind every per-key table the
//     profiler keeps.
//
//   * StackDistanceTracker — Mattson's LRU stack algorithm.  The reuse
//     distance of an access is the number of *distinct* other keys touched
//     since the previous access to the same key — exactly the LRU stack
//     depth minus one, so an LRU cache of capacity C hits iff distance < C.
//     The top kFront keys of the stack sit in an exact most-recent-first
//     array, which answers the short distances that dominate line and page
//     streams with a scan and a rotation.  Keys below it live in Olken's
//     O(log n) formulation: a timestamp per key and a Fenwick tree over
//     timestamps marking which are live.  A KeyIndex finds a key's
//     timestamp, and a timestamp-to-entry array lets compaction renumber
//     the live timestamps in order without sorting.
//
//   * ReuseHistogram — log-linear histogram of reuse distances (exact
//     buckets below 64, then eight sub-buckets per octave), integrable
//     against any cache geometry: `expected_hits(sets, ways)` folds each
//     bucket through a binomial/Poisson set-conflict model, which is what
//     lets one profiled run predict hit rates for every MachineParams.
//
//   * miss_split — the classic cold / capacity / conflict decomposition of
//     the misses the histogram implies for one geometry.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace paxsim::model {

/// Flat open-addressing map from 64-bit keys to 32-bit values: a
/// power-of-two table with linear probing and a multiplicative hash.  Keys
/// are never removed.  Entries are addressed by table position, which stays
/// put until an insert grows the table (capacity() changes) and moves them
/// all.
class KeyIndex {
 public:
  /// find()'s answer for an absent key, and the value of an empty
  /// position; never a stored value.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Position of @p key's entry, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const noexcept {
    if (size_ == 0) return kNone;
    for (std::uint32_t pos = home(key);; pos = (pos + 1) & mask_) {
      const Entry& e = table_[pos];
      if (e.value == kNone) return kNone;
      if (e.key == key) return pos;
    }
  }

  /// Inserts absent @p key with @p value (not kNone) and returns its
  /// position.  Grows the table first when it would pass half full.
  std::uint32_t insert(std::uint64_t key, std::uint32_t value);

  /// Value at position @p pos (kNone where no key is stored).
  [[nodiscard]] std::uint32_t& value(std::uint32_t pos) noexcept {
    return table_[pos].value;
  }
  [[nodiscard]] std::uint32_t value(std::uint32_t pos) const noexcept {
    return table_[pos].value;
  }

  /// Keys stored.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Table positions (0 before the first insert).
  [[nodiscard]] std::size_t capacity() const noexcept { return table_.size(); }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t value = kNone;
  };

  [[nodiscard]] std::uint32_t home(std::uint64_t key) const noexcept {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void grow();

  std::vector<Entry> table_;
  std::uint32_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

/// Mattson LRU stack-distance tracker over opaque 64-bit keys (line
/// indices, page indices, block ids — the caller picks the granularity by
/// shifting addresses before calling).
class StackDistanceTracker {
 public:
  /// Distance reported for a first-touch (cold) access.
  static constexpr std::uint64_t kCold = ~std::uint64_t{0};
  /// Keys kept in the exact most-recent-first front: distances below this
  /// never touch the index or the Fenwick tree.
  static constexpr std::uint32_t kFront = 32;

  /// Records an access to @p key and returns its reuse distance: the number
  /// of distinct other keys accessed since the previous access to @p key,
  /// or kCold on first touch.
  std::uint64_t access(std::uint64_t key);

  /// Reuse distance @p key would observe if accessed now, without recording
  /// anything.  kCold if never seen.  (Used for neighbour-line stream
  /// detection.)
  [[nodiscard]] std::uint64_t peek(std::uint64_t key) const;

  /// Number of distinct keys seen so far.
  [[nodiscard]] std::size_t distinct() const noexcept { return index_.size(); }

 private:
  /// Index value of a key that sits in the front (deep keys store their
  /// timestamp slot).
  static constexpr std::uint32_t kInFront = KeyIndex::kNone - 1;

  /// Distance of the deep key whose slot is @p slot: every front key and
  /// every live slot after @p slot is more recent.
  [[nodiscard]] std::uint64_t deep_distance(std::uint32_t slot) const noexcept;
  void fen_add(std::uint32_t slot, int delta) noexcept;
  [[nodiscard]] std::uint64_t fen_prefix(std::uint32_t slot) const noexcept;
  /// Rebuilds the Fenwick tree from slot_entry_ in O(cap_).
  void fen_rebuild();
  /// Renumbers live slots in order (dropping dead ones) or doubles cap_.
  void compact_or_grow();
  /// Refreshes slot_entry_ after the index grew (growth moves every entry).
  void reindex();

  KeyIndex index_;  ///< key -> deep slot, or kInFront
  std::array<std::uint64_t, kFront> front_{};  ///< most recent first
  std::uint32_t front_size_ = 0;
  std::vector<std::uint32_t> slot_entry_;  ///< slot -> index position, or kNone
  std::vector<std::uint32_t> fen_;  ///< Fenwick tree, 1-based, live markers
  std::uint32_t cap_ = 0;           ///< slots available before compaction
  std::uint32_t time_ = 0;          ///< next slot to assign
};

/// Log-linear reuse-distance histogram.  Distances below kExact get exact
/// buckets; above, each power-of-two octave is split into kSub sub-buckets,
/// so integration error stays within ~12% of a bucket's span.
class ReuseHistogram {
 public:
  static constexpr std::uint64_t kExact = 64;
  static constexpr std::uint64_t kSub = 8;

  void add(std::uint64_t distance, std::uint64_t weight = 1) {
    const std::size_t idx = bucket_index(distance);
    if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
    counts_[idx] += weight;
    finite_ += weight;
  }
  void add_cold(std::uint64_t weight = 1) { cold_ += weight; }
  void merge(const ReuseHistogram& other);

  [[nodiscard]] std::uint64_t cold() const noexcept { return cold_; }
  /// Accesses with a finite distance (re-references).
  [[nodiscard]] std::uint64_t finite() const noexcept { return finite_; }
  /// All recorded accesses (finite + cold).
  [[nodiscard]] std::uint64_t total() const noexcept {
    return finite_ + cold_;
  }

  /// Expected number of recorded accesses that hit an LRU cache of
  /// @p sets x @p ways entries: stack-distance integration with a Poisson
  /// set-conflict correction (an access at distance d sees ~Poisson(d/sets)
  /// intervening lines in its own set and hits iff fewer than `ways`
  /// arrived).  Cold accesses never hit.
  [[nodiscard]] double expected_hits(std::size_t sets,
                                     std::size_t ways) const;

  /// Fraction of all recorded accesses (cold included) whose distance is
  /// below @p capacity — the fully-associative hit rate at that capacity,
  /// with linear interpolation inside the straddling bucket.
  [[nodiscard]] double fraction_below(double capacity) const;

  /// Probability that one access at distance @p distance hits a
  /// @p sets x @p ways LRU cache (the per-access kernel expected_hits
  /// integrates).  Exposed for the unit tests.
  [[nodiscard]] static double hit_probability(double distance,
                                              std::size_t sets,
                                              std::size_t ways);

  // Bucket introspection (tests and report emitters).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t d) noexcept {
    if (d < kExact) return static_cast<std::size_t>(d);
    const int octave = std::bit_width(d) - 1;  // >= 6
    const std::uint64_t sub = (d >> (octave - 3)) & (kSub - 1);
    return kExact + static_cast<std::size_t>(octave - 6) * kSub +
           static_cast<std::size_t>(sub);
  }
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t i) noexcept;
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t i) noexcept;
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return counts_;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t finite_ = 0;
  std::uint64_t cold_ = 0;
};

/// Cold / capacity / conflict decomposition of a histogram against one
/// geometry.  hits + cold + capacity + conflict == total().
struct MissSplit {
  double hits = 0;      ///< expected set-associative hits
  double cold = 0;      ///< first-touch misses
  double capacity = 0;  ///< distance >= sets*ways: even fully-assoc misses
  double conflict = 0;  ///< distance <  sets*ways but evicted by set conflict
};

[[nodiscard]] MissSplit miss_split(const ReuseHistogram& h, std::size_t sets,
                                   std::size_t ways);

}  // namespace paxsim::model
