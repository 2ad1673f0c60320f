// paxsim/sim/cache.hpp
//
// Generic set-associative cache with true-LRU replacement, writeback /
// write-allocate policy, MESI-lite line states and a "prefetched" line tag
// used to credit the hardware prefetcher.  Used for L1D and L2; the trace
// cache and the TLBs reuse the same structure via thin adapters.
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
  struct Line {
    Addr tag = 0;
    std::uint64_t stamp = 0;
    double ready_at = 0;
    std::uint32_t epoch = 0;  ///< lazily invalidated: live iff == cache epoch
    LineState state = LineState::kInvalid;
    bool prefetched = false;
  };

 public:
  explicit SetAssocCache(const CacheGeometry& geom);

  /// Opaque handle to a line slot, handed out by last_ref() after a probe or
  /// fill touched the line.  The handle stays cheap to revalidate rather
  /// than guaranteed-valid: fast_check() re-verifies tag and state against
  /// the live slot, so a handle left stale by an eviction, invalidation or
  /// reset simply fails the check and the caller falls back to probe().
  class LineRef {
   public:
    constexpr LineRef() = default;

   private:
    friend class SetAssocCache;
    explicit constexpr LineRef(Line* l) noexcept : l_(l) {}
    Line* l_ = nullptr;
  };

  /// Looks up @p addr.  On a hit the line's LRU stamp is refreshed and, if
  /// @p is_store, the line is upgraded towards kModified (coherence actions
  /// for other caches are the owner's job — see `needs_upgrade`).
  ProbeResult probe(Addr addr, bool is_store) noexcept;

  /// Handle to the line the most recent probe() hit or fill() installed.
  [[nodiscard]] LineRef last_ref() const noexcept { return LineRef{last_hit_}; }

  /// Handle to the resident line containing @p addr (a null handle, which
  /// fails every fast_check, if absent).  Pure lookup for fast-path
  /// registration — no LRU clock tick, no stamp refresh.
  [[nodiscard]] LineRef ref_of(Addr addr) noexcept {
    return LineRef{find(addr)};
  }

  /// True if @p ref still denotes the valid line containing @p addr, in a
  /// state a hit of this kind would not have to escalate: stores reject
  /// kShared lines (those need the slow path's remote upgrade) and lines
  /// with an in-flight fill still pending (`ready_at` must be charged).
  /// Pure check — no LRU or state side effects.
  [[nodiscard]] bool fast_check(LineRef ref, Addr addr,
                                bool is_store = false) const noexcept {
    const Line* l = ref.l_;
    return l != nullptr && l->epoch == epoch_ &&
           l->state != LineState::kInvalid &&
           l->tag == (line_of(addr) >> line_shift_) && !l->prefetched &&
           l->ready_at == 0 && !(is_store && l->state == LineState::kShared);
  }

  /// Replays exactly the state effects probe() has on a hit of the line
  /// behind @p ref: the LRU clock tick, the stamp refresh, the prefetch-
  /// credit consumption and the store upgrade towards kModified.  The
  /// caller must have validated @p ref with fast_check() for this access.
  void fast_commit(LineRef ref, bool is_store = false) noexcept {
    Line* l = ref.l_;
    ++clock_;
    l->stamp = clock_;
    l->prefetched = false;
    if (is_store && l->state != LineState::kShared) {
      l->state = LineState::kModified;
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

  /// True if a store to @p addr requires invalidating remote copies, i.e.
  /// the line is present but only in kShared state.
  [[nodiscard]] bool needs_upgrade(Addr addr) const noexcept;

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
  [[nodiscard]] bool contains(Addr addr) const noexcept;

  /// Current state of the line containing @p addr (kInvalid if absent).
  [[nodiscard]] LineState state_of(Addr addr) const noexcept;

  /// Marks the store-upgrade of a present line to kModified.
  void upgrade_to_modified(Addr addr) noexcept;

  /// Line-aligned address of @p addr under this cache's geometry.
  [[nodiscard]] Addr line_of(Addr addr) const noexcept {
    return addr & ~static_cast<Addr>(line_bytes_ - 1);
  }

  /// Drops all content (used between trials), including the MRU hints and
  /// the last-hit handle.  O(1): bumps the epoch instead of walking the
  /// line array, so a full-capacity 2 MB L2 resets as cheaply as a 1 KB L1.
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
  /// epoch equals the current one (by construction of live()), each set's
  /// MRU hint within the way count, and no two live lines of a set carry
  /// the same tag.  Returns true when clean; otherwise fills @p why (if
  /// non-null) with the first violation found.
  [[nodiscard]] bool audit(std::string* why) const;

 private:
  [[nodiscard]] std::size_t set_index(Addr line_addr) const noexcept {
    return (line_addr >> line_shift_) & (sets_ - 1);
  }
  [[nodiscard]] Addr tag_of(Addr line_addr) const noexcept {
    return line_addr >> line_shift_;
  }
  /// A line participates in lookups only when it belongs to the current
  /// reset epoch; stale-epoch lines behave exactly like kInvalid slots.
  [[nodiscard]] bool live(const Line& l) const noexcept {
    return l.epoch == epoch_ && l.state != LineState::kInvalid;
  }
  Line* find(Addr addr) noexcept;
  const Line* find(Addr addr) const noexcept;

  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_bytes_;
  unsigned line_shift_;
  std::uint64_t clock_ = 0;  // LRU stamp source
  std::uint64_t gen_base_ = 0;          // reset() bumps all sets' generations
  std::uint64_t mut_gen_ = 0;           // whole-cache mutation generation
  std::uint32_t epoch_ = 1;  // current reset epoch (0 marks never-used slots)
  std::vector<Line> lines_;  // sets_ * ways_, set-major
  std::vector<std::uint64_t> set_gens_;  // per-set mutation generation
  std::vector<std::uint8_t> mru_;  // per-set most-recently-matched way hint
  Line* last_hit_ = nullptr;       // line served by the latest probe/fill
};

// ---------------------------------------------------------------------------
// Inlined lookup core.  find() and the probe/contains/state family are the
// busiest functions in the whole simulator (every slow-path memory access
// walks them several times), so they live in the header.
// ---------------------------------------------------------------------------

inline auto SetAssocCache::find(Addr addr) noexcept -> Line* {
  const Addr la = line_of(addr);
  const std::size_t set = set_index(la);
  const std::size_t base = set * ways_;
  const Addr tag = tag_of(la);
  // Most accesses re-touch the way the set served last; probe it first.
  Line& hint = lines_[base + mru_[set]];
  if (live(hint) && hint.tag == tag) return &hint;
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& l = lines_[base + w];
    if (live(l) && l.tag == tag) {
      mru_[set] = static_cast<std::uint8_t>(w);
      return &l;
    }
  }
  return nullptr;
}

inline auto SetAssocCache::find(Addr addr) const noexcept -> const Line* {
  return const_cast<SetAssocCache*>(this)->find(addr);
}

inline ProbeResult SetAssocCache::probe(Addr addr, bool is_store) noexcept {
  ++clock_;
  Line* l = find(addr);
  if (l == nullptr) return {};
  last_hit_ = l;
  l->stamp = clock_;
  ProbeResult r{true, l->prefetched, l->ready_at};
  l->prefetched = false;  // first demand touch consumes the prefetch credit
  if (is_store && l->state != LineState::kShared) l->state = LineState::kModified;
  return r;
}

inline bool SetAssocCache::needs_upgrade(Addr addr) const noexcept {
  const Line* l = find(addr);
  return l != nullptr && l->state == LineState::kShared;
}

inline bool SetAssocCache::contains(Addr addr) const noexcept {
  return find(addr) != nullptr;
}

inline LineState SetAssocCache::state_of(Addr addr) const noexcept {
  const Line* l = find(addr);
  return l == nullptr ? LineState::kInvalid : l->state;
}

inline void SetAssocCache::upgrade_to_modified(Addr addr) noexcept {
  if (Line* l = find(addr)) l->state = LineState::kModified;
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
  // Re-fill of a resident line just updates state (e.g. upgrade fill).
  if (Line* l = find(addr)) {
    last_hit_ = l;
    l->state = st;
    l->stamp = clock_;
    l->prefetched = prefetched;
    l->ready_at = ready_at;
    return std::nullopt;
  }
  std::size_t victim = 0;
  std::uint64_t best = UINT64_MAX;
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& l = lines_[base + w];
    if (!live(l)) {
      victim = w;
      best = 0;
      break;
    }
    if (l.stamp < best) {
      best = l.stamp;
      victim = w;
    }
  }
  Line& v = lines_[base + victim];
  std::optional<Eviction> ev;
  if (live(v)) {
    ev = Eviction{v.tag << line_shift_, v.state == LineState::kModified};
  }
  v.tag = tag_of(la);
  v.stamp = clock_;
  v.epoch = epoch_;
  v.state = st;
  v.prefetched = prefetched;
  v.ready_at = ready_at;
  mru_[set] = static_cast<std::uint8_t>(victim);
  last_hit_ = &v;
  return ev;
}

}  // namespace paxsim::sim
