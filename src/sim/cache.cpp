#include "sim/cache.hpp"

#include <algorithm>
#include <cassert>

namespace paxsim::sim {

SetAssocCache::SetAssocCache(const CacheGeometry& geom)
    : sets_(geom.sets()),
      ways_(geom.ways),
      line_bytes_(geom.line_bytes),
      line_shift_(log2_exact(geom.line_bytes)) {
  assert(is_pow2(sets_) && "cache set count must be a power of two");
  assert(is_pow2(line_bytes_) && "cache line size must be a power of two");
  assert(line_bytes_ >= kMinLineBytes && "tag and epoch must share one key");
  assert(ways_ <= 255 && "MRU way hint is stored in a byte");
  assert(sets_ * ways_ < kNoSlot && "slots are 32-bit indices");
  keys_.assign(sets_ * ways_, 0);
  meta_.resize(sets_ * ways_);
  mru_.assign(sets_, 0);
  set_gens_.assign(sets_, 0);
}

bool SetAssocCache::invalidate(Addr addr) noexcept {
  const Slot i = find(addr);
  if (i == kNoSlot) return false;
  ++set_gens_[set_index(line_of(addr))];
  ++mut_gen_;
  keys_[i] = 0;
  return meta_[i].state == LineState::kModified;
}

bool SetAssocCache::downgrade_to_shared(Addr addr) noexcept {
  const Slot i = find(addr);
  if (i == kNoSlot) return false;
  ++set_gens_[set_index(line_of(addr))];
  ++mut_gen_;
  const bool dirty = meta_[i].state == LineState::kModified;
  meta_[i].state = LineState::kShared;
  return dirty;
}

void SetAssocCache::reset() noexcept {
  // Lazy invalidation: bumping the epoch strands every resident key in the
  // old epoch, where live() treats it exactly like an empty way.  The key
  // array is only cleared when the epoch field wraps, every 2^kEpochBits - 1
  // resets, so that no stale key can reappear in a reused epoch.
  if (++epoch_ > kEpochMask) {
    std::fill(keys_.begin(), keys_.end(), 0);
    epoch_ = 1;
  }
  last_hit_ = kNoSlot;
  clock_ = 0;
  // One increment advances every set's mutation generation (set_gens_ stay
  // as they are; the per-set accessor adds the base), keeping reset O(1).
  ++gen_base_;
  ++mut_gen_;
}

std::size_t SetAssocCache::resident_lines() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      keys_.begin(), keys_.end(), [this](std::uint64_t k) { return live(k); }));
}

std::vector<SetAssocCache::LineView> SetAssocCache::live_lines() const {
  std::vector<LineView> out;
  out.reserve(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (!live(keys_[i])) continue;
    const Meta& m = meta_[i];
    out.push_back(LineView{line_of_key(keys_[i]), m.state, m.stamp, m.ready_at,
                           m.prefetched});
  }
  return out;
}

bool SetAssocCache::audit(std::string* why) const {
  const auto fail = [&](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  for (std::size_t set = 0; set < sets_; ++set) {
    if (mru_[set] >= ways_) {
      return fail("mru hint out of range in set " + std::to_string(set));
    }
    const std::size_t base = set * ways_;
    for (std::size_t w = 0; w < ways_; ++w) {
      const std::uint64_t key = keys_[base + w];
      if (!live(key)) continue;
      const Meta& m = meta_[base + w];
      const std::string where =
          " (set " + std::to_string(set) + ", way " + std::to_string(w) + ")";
      if (m.stamp > clock_) {
        return fail("stamp " + std::to_string(m.stamp) + " ahead of LRU clock " +
                    std::to_string(clock_) + where);
      }
      if (m.state == LineState::kInvalid) {
        return fail("live key with an invalid state" + where);
      }
      if (set_index(line_of_key(key)) != set) {
        return fail("tag maps outside its set" + where);
      }
      for (std::size_t w2 = w + 1; w2 < ways_; ++w2) {
        if (keys_[base + w2] == key) {
          return fail("duplicate live key in set " + std::to_string(set));
        }
      }
    }
  }
  return true;
}

}  // namespace paxsim::sim
