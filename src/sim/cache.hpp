// paxsim/sim/cache.hpp
//
// Generic set-associative cache with true-LRU replacement, writeback /
// write-allocate policy, MESI-lite line states and a "prefetched" line tag
// used to credit the hardware prefetcher.  Used for L1D and L2; the trace
// cache and the TLBs reuse the same structure via thin adapters.
//
// Set layout: each way has one 64-bit key packing the line's tag (its line
// number) above the reset epoch it was filled in; 0 means empty.  A set's
// keys are contiguous (an 8-way set is one 64-byte host line), so a lookup
// is one compare per way.  The rest of a line — LRU stamp, in-flight
// arrival time, MESI state, prefetch credit — lives in a parallel array
// that is read only on a hit or when a full set picks its LRU victim.
// fill() makes a single pass over the keys that finds either the resident
// line or the first empty way; stamps are read only when neither exists.
//
// Supported range: byte addresses below 2^kAddrBits (2^48) and lines of at
// least kMinLineBytes (8) bytes, so a tag never exceeds 45 bits and the
// epoch keeps the key's low kEpochBits (19).  AddressSpace windows and the
// topology validator stay inside that range.
//
// Hot-path support: probe() remembers the line it served (`last_ref()`), and
// the core's inlined fast path revalidates that handle with fast_check() and
// replays probe()'s exact hit effects with fast_commit() — same LRU clock
// tick, same stamp refresh, same store-upgrade rule — so the cache's state
// trajectory is bit-identical whether an access took the fast or the slow
// path.  find() also keeps a per-set MRU way hint, probed before the way
// walk (pure lookup acceleration, no state effects).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/params.hpp"
#include "sim/types.hpp"

namespace paxsim::sim {

/// MESI-lite coherence state of a cached line.
enum class LineState : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

/// Result of a cache probe.
struct ProbeResult {
  bool hit = false;          ///< line present
  bool prefetched = false;   ///< line was brought in by the prefetcher
  double ready_at = 0;       ///< virtual time the line's data arrives
                             ///< (an in-flight fill hit must wait for it)
  /// State the probe left the line in (kInvalid on a miss).  A store hit
  /// that still reads kShared needs the owner's remote upgrade.
  LineState state = LineState::kInvalid;
};

/// A line evicted to make room for a fill.
struct Eviction {
  Addr line_addr = 0;  ///< line-aligned byte address
  bool dirty = false;  ///< needs writeback
};

/// Set-associative cache.  Addresses are byte addresses; the cache aligns
/// them internally.  The caller owns all timing; this class is purely
/// functional state plus hit/miss bookkeeping hooks (the owner counts).
class SetAssocCache {
  /// Everything about a line except its identity, parallel to `keys_`.
  struct Meta {
    std::uint64_t stamp = 0;
    double ready_at = 0;
    LineState state = LineState::kInvalid;
    bool prefetched = false;
  };
  /// Index of a way in `keys_` / `meta_` (set * ways + way).
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = UINT32_MAX;

 public:
  /// Byte addresses must lie below 2^kAddrBits.
  static constexpr unsigned kAddrBits = 48;
  /// Smallest supported line (or page) size in bytes.
  static constexpr std::size_t kMinLineBytes = 8;
  /// Low key bits holding the reset epoch; the tag (line number, at most
  /// kAddrBits - log2(kMinLineBytes) bits) sits above them.  The epoch
  /// field wraps, and reset() clears every key, once per 2^kEpochBits - 1
  /// resets.
  static constexpr unsigned kEpochBits =
      64 - (kAddrBits - log2_exact(kMinLineBytes));

  explicit SetAssocCache(const CacheGeometry& geom);

  /// Opaque handle to a line slot, handed out by last_ref() after a probe or
  /// fill touched the line.  The handle stays cheap to revalidate rather
  /// than guaranteed-valid: fast_check() re-verifies the slot's key against
  /// the address, so a handle left stale by an eviction, invalidation or
  /// reset simply fails the check and the caller falls back to probe().
  class LineRef {
   public:
    constexpr LineRef() = default;

   private:
    friend class SetAssocCache;
    explicit constexpr LineRef(Slot i) noexcept : i_(i) {}
    Slot i_ = kNoSlot;
  };

  /// Looks up @p addr.  On a hit the line's LRU stamp is refreshed and, if
  /// @p is_store, the line is upgraded towards kModified (coherence actions
  /// for other caches are the owner's job — a store hit whose result still
  /// reads kShared needs them).
  ProbeResult probe(Addr addr, bool is_store) noexcept;

  /// Handle to the line the most recent probe() hit or fill() installed.
  [[nodiscard]] LineRef last_ref() const noexcept { return LineRef{last_hit_}; }

  /// Handle to the resident line containing @p addr (a null handle, which
  /// fails every fast_check, if absent).  Pure lookup for fast-path
  /// registration — no LRU clock tick, no stamp refresh.
  [[nodiscard]] LineRef ref_of(Addr addr) const noexcept {
    return LineRef{find(addr)};
  }

  /// True if @p ref still denotes the valid line containing @p addr, in a
  /// state a hit of this kind would not have to escalate: stores reject
  /// kShared lines (those need the slow path's remote upgrade) and lines
  /// with an in-flight fill still pending (`ready_at` must be charged).
  /// Pure check — no LRU or state side effects.
  [[nodiscard]] bool fast_check(LineRef ref, Addr addr,
                                bool is_store = false) const noexcept {
    if (ref.i_ == kNoSlot || keys_[ref.i_] != key_of(line_of(addr))) {
      return false;
    }
    const Meta& m = meta_[ref.i_];
    return !m.prefetched && m.ready_at == 0 &&
           !(is_store && m.state == LineState::kShared);
  }

  /// Replays exactly the state effects probe() has on a hit of the line
  /// behind @p ref: the LRU clock tick, the stamp refresh, the prefetch-
  /// credit consumption and the store upgrade towards kModified.  The
  /// caller must have validated @p ref with fast_check() for this access.
  void fast_commit(LineRef ref, bool is_store = false) noexcept {
    Meta& m = meta_[ref.i_];
    ++clock_;
    m.stamp = clock_;
    m.prefetched = false;
    if (is_store && m.state != LineState::kShared) {
      m.state = LineState::kModified;
    }
  }

  /// Mutation generation of the set that holds @p addr.  Monotone; ticks on
  /// every fill(), invalidate() and downgrade_to_shared() that touches the
  /// set and on every reset() (which advances all sets at once).  Those are
  /// exactly the operations that can move, retag, weaken or re-time a line,
  /// so an unchanged generation proves a LineRef captured under it is still
  /// valid without re-reading the line: probe()/fast_commit() only refresh
  /// stamps, consume prefetch credit and strengthen state towards kModified,
  /// and upgrade_to_modified() strengthens a line an armed handle never
  /// covers (arming requires non-kShared).  This is the zero-dereference
  /// tier of the core's inlined fast path.
  [[nodiscard]] std::uint64_t mutation_gen(Addr addr) const noexcept {
    return set_gens_[set_index(line_of(addr))] + gen_base_;
  }

  /// Whole-cache mutation generation: ticks whenever any set's generation
  /// does, including reset().  Coarser than mutation_gen(addr) — any fill
  /// anywhere advances it — but a single member load to read, which suits
  /// caches that mutate rarely (the TLBs).
  [[nodiscard]] std::uint64_t mutation_gen() const noexcept {
    return mut_gen_;
  }

  /// Direct pointer to the mutation-generation slot of the set holding
  /// @p addr, for callers that revalidate per access and want to skip the
  /// index math.  Stable for the cache's lifetime (the array never
  /// resizes).  NOTE: the slot value alone excludes the reset() base —
  /// holders must drop their handles on reset, which every fast-path
  /// register does (reset tears down the core's FastEntry tables).
  [[nodiscard]] const std::uint64_t* mutation_gen_slot(
      Addr addr) const noexcept {
    return &set_gens_[set_index(line_of(addr))];
  }

  /// LRU clock: ticks on every probe(), fill() and fast_commit(); reset()
  /// zeroes it.  An unchanged clock therefore proves *no* lookup or fill has
  /// touched the whole cache since it was read — the front-end fast path
  /// snapshots it to replay a repeated trace fetch without revalidation.
  [[nodiscard]] std::uint64_t lru_clock() const noexcept { return clock_; }

  /// Installs the line containing @p addr with state @p st.  @p ready_at is
  /// the virtual time the fill data arrives (0 for an immediate fill).
  /// Returns the eviction performed to make room, if any.
  std::optional<Eviction> fill(Addr addr, LineState st, bool prefetched,
                               double ready_at = 0) noexcept;

  /// Removes the line containing @p addr if present; returns true if it was
  /// dirty (the caller emits the writeback).
  bool invalidate(Addr addr) noexcept;

  /// Downgrades the line containing @p addr to kShared (remote read snoop).
  /// Returns true if it was dirty (implicit writeback of the modified data).
  bool downgrade_to_shared(Addr addr) noexcept;

  /// True if the line containing @p addr is resident.
  [[nodiscard]] bool contains(Addr addr) const noexcept {
    return find(addr) != kNoSlot;
  }

  /// Current state of the line containing @p addr (kInvalid if absent).
  [[nodiscard]] LineState state_of(Addr addr) const noexcept {
    const Slot i = find(addr);
    return i == kNoSlot ? LineState::kInvalid : meta_[i].state;
  }

  /// Marks the store-upgrade of a present line to kModified.
  void upgrade_to_modified(Addr addr) noexcept {
    const Slot i = find(addr);
    if (i != kNoSlot) meta_[i].state = LineState::kModified;
  }

  /// Line-aligned address of @p addr under this cache's geometry.
  [[nodiscard]] Addr line_of(Addr addr) const noexcept {
    return addr & ~static_cast<Addr>(line_bytes_ - 1);
  }

  /// Drops all content (used between trials), including the MRU hints and
  /// the last-hit handle.  O(1): bumps the epoch instead of walking the
  /// key array, so a full-capacity 2 MB L2 resets as cheaply as a 1 KB L1.
  void reset() noexcept;

  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t line_bytes() const noexcept { return line_bytes_; }

  /// Number of valid lines currently resident (for tests / introspection).
  [[nodiscard]] std::size_t resident_lines() const noexcept;

  // ---- introspection (invariant checker, src/check/) ----------------------
  /// Snapshot of one live line.
  struct LineView {
    Addr line_addr = 0;       ///< line-aligned byte address
    LineState state = LineState::kInvalid;
    std::uint64_t stamp = 0;  ///< LRU stamp at snapshot time
    double ready_at = 0;      ///< pending fill arrival (0 = data present)
    bool prefetched = false;  ///< unconsumed prefetch credit
  };

  /// All live lines, set-major.  O(sets * ways); checker-cadence only.
  [[nodiscard]] std::vector<LineView> live_lines() const;

  /// Structural self-audit: every live stamp <= the LRU clock, every live
  /// line in a valid state and its tag mapping to the set that holds it,
  /// each set's MRU hint within the way count, and no two live keys of a
  /// set equal.  Returns true when clean; otherwise fills @p why (if
  /// non-null) with the first violation found.
  [[nodiscard]] bool audit(std::string* why) const;

 private:
  static constexpr std::uint64_t kEpochMask = (std::uint64_t{1} << kEpochBits) - 1;

  [[nodiscard]] std::size_t set_index(Addr line_addr) const noexcept {
    return (line_addr >> line_shift_) & (sets_ - 1);
  }
  /// Key of @p line_addr in the current epoch: never 0, since epoch_ >= 1.
  [[nodiscard]] std::uint64_t key_of(Addr line_addr) const noexcept {
    return ((line_addr >> line_shift_) << kEpochBits) | epoch_;
  }
  [[nodiscard]] Addr line_of_key(std::uint64_t key) const noexcept {
    return (key >> kEpochBits) << line_shift_;
  }
  /// A key participates in lookups only when it belongs to the current
  /// reset epoch; stale-epoch and cleared (0) keys are empty ways.
  [[nodiscard]] bool live(std::uint64_t key) const noexcept {
    return (key & kEpochMask) == epoch_;
  }
  /// Slot of the resident line containing @p addr, or kNoSlot.
  [[nodiscard]] Slot find(Addr addr) const noexcept;

  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_bytes_;
  unsigned line_shift_;
  std::uint64_t clock_ = 0;  // LRU stamp source
  std::uint64_t gen_base_ = 0;          // reset() bumps all sets' generations
  std::uint64_t mut_gen_ = 0;           // whole-cache mutation generation
  std::uint64_t epoch_ = 1;  // current reset epoch, 1..kEpochMask
  std::vector<std::uint64_t> keys_;  // sets_ * ways_, set-major; 0 = empty
  std::vector<Meta> meta_;           // parallel to keys_
  std::vector<std::uint64_t> set_gens_;  // per-set mutation generation
  // Per-set most-recently-matched way hint.  Lookup acceleration only, so
  // const lookups may move it.
  mutable std::vector<std::uint8_t> mru_;
  Slot last_hit_ = kNoSlot;  // line served by the latest probe/fill
};

// ---------------------------------------------------------------------------
// Inlined lookup core.  find() and the probe/fill family are the busiest
// functions in the whole simulator (every slow-path memory access walks
// them), so they live in the header.
// ---------------------------------------------------------------------------

inline auto SetAssocCache::find(Addr addr) const noexcept -> Slot {
  const Addr la = line_of(addr);
  const std::size_t set = set_index(la);
  const std::size_t base = set * ways_;
  const std::uint64_t key = key_of(la);
  const std::uint64_t* k = &keys_[base];
  // Most accesses re-touch the way the set served last; probe it first.
  const std::uint8_t hint = mru_[set];
  if (k[hint] == key) return static_cast<Slot>(base + hint);
  for (std::size_t w = 0; w < ways_; ++w) {
    if (k[w] == key) {
      mru_[set] = static_cast<std::uint8_t>(w);
      return static_cast<Slot>(base + w);
    }
  }
  return kNoSlot;
}

inline ProbeResult SetAssocCache::probe(Addr addr, bool is_store) noexcept {
  ++clock_;
  const Slot i = find(addr);
  if (i == kNoSlot) return {};
  last_hit_ = i;
  Meta& m = meta_[i];
  m.stamp = clock_;
  const bool prefetched = m.prefetched;
  m.prefetched = false;  // first demand touch consumes the prefetch credit
  if (is_store && m.state != LineState::kShared) m.state = LineState::kModified;
  return {true, prefetched, m.ready_at, m.state};
}

inline std::optional<Eviction> SetAssocCache::fill(Addr addr, LineState st,
                                                   bool prefetched,
                                                   double ready_at) noexcept {
  ++clock_;
  const Addr la = line_of(addr);
  const std::size_t set = set_index(la);
  const std::size_t base = set * ways_;
  // Either branch below rewrites a line's identity, state or timing, so any
  // fast-path handle armed against this set must revalidate.
  ++set_gens_[set];
  ++mut_gen_;
  // One pass over the keys: the resident line if there is one, else the
  // first empty way.
  const std::uint64_t key = key_of(la);
  std::uint64_t* k = &keys_[base];
  std::size_t victim = ways_;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (k[w] == key) {
      // Re-fill of a resident line just updates state (e.g. upgrade fill).
      last_hit_ = static_cast<Slot>(base + w);
      meta_[base + w] = Meta{clock_, ready_at, st, prefetched};
      return std::nullopt;
    }
    if (victim == ways_ && !live(k[w])) victim = w;
  }
  std::optional<Eviction> ev;
  if (victim == ways_) {
    // Full set: the least recently used way (the first of equal stamps).
    victim = 0;
    std::uint64_t best = UINT64_MAX;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (meta_[base + w].stamp < best) {
        best = meta_[base + w].stamp;
        victim = w;
      }
    }
    ev = Eviction{line_of_key(k[victim]),
                  meta_[base + victim].state == LineState::kModified};
  }
  k[victim] = key;
  meta_[base + victim] = Meta{clock_, ready_at, st, prefetched};
  mru_[set] = static_cast<std::uint8_t>(victim);
  last_hit_ = static_cast<Slot>(base + victim);
  return ev;
}

}  // namespace paxsim::sim
