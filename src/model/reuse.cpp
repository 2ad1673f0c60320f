#include "model/reuse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace paxsim::model {

// ---------------------------------------------------------------------------
// KeyIndex
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint32_t kInitialIndexCap = 64;
}  // namespace

void KeyIndex::grow() {
  const std::size_t cap =
      table_.empty() ? kInitialIndexCap : table_.size() * 2;
  std::vector<Entry> old(cap);
  old.swap(table_);
  mask_ = static_cast<std::uint32_t>(cap - 1);
  shift_ = 64 - std::countr_zero(cap);
  for (const Entry& e : old) {
    if (e.value == kNone) continue;
    std::uint32_t pos = home(e.key);
    while (table_[pos].value != kNone) pos = (pos + 1) & mask_;
    table_[pos] = e;
  }
}

std::uint32_t KeyIndex::insert(std::uint64_t key, std::uint32_t value) {
  if ((size_ + 1) * 2 > table_.size()) grow();
  std::uint32_t pos = home(key);
  while (table_[pos].value != kNone) pos = (pos + 1) & mask_;
  table_[pos] = Entry{key, value};
  ++size_;
  return pos;
}

// ---------------------------------------------------------------------------
// StackDistanceTracker
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint32_t kInitialCap = 1024;
}  // namespace

void StackDistanceTracker::fen_add(std::uint32_t slot, int delta) noexcept {
  for (std::uint32_t i = slot + 1; i <= cap_; i += i & (~i + 1)) {
    fen_[i] = static_cast<std::uint32_t>(static_cast<int>(fen_[i]) + delta);
  }
}

std::uint64_t StackDistanceTracker::fen_prefix(
    std::uint32_t slot) const noexcept {
  std::uint64_t sum = 0;
  for (std::uint32_t i = slot + 1; i > 0; i -= i & (~i + 1)) sum += fen_[i];
  return sum;
}

void StackDistanceTracker::fen_rebuild() {
  fen_.assign(cap_ + 1, 0);
  for (std::uint32_t i = 1; i <= cap_; ++i) {
    if (slot_entry_[i - 1] != KeyIndex::kNone) ++fen_[i];
    const std::uint32_t parent = i + (i & (~i + 1));
    if (parent <= cap_) fen_[parent] += fen_[i];
  }
}

std::uint64_t StackDistanceTracker::deep_distance(
    std::uint32_t slot) const noexcept {
  return static_cast<std::uint64_t>(distinct()) - fen_prefix(slot);
}

void StackDistanceTracker::compact_or_grow() {
  if (cap_ == 0) {
    cap_ = kInitialCap;
  } else if (fen_prefix(cap_ - 1) * 2 <= cap_) {
    // Renumber the live slots in recency order, dropping the dead ones.
    std::uint32_t next = 0;
    for (std::uint32_t slot = 0; slot < time_; ++slot) {
      const std::uint32_t pos = slot_entry_[slot];
      if (pos == KeyIndex::kNone) continue;
      index_.value(pos) = next;
      slot_entry_[next++] = pos;
    }
    std::fill(slot_entry_.begin() + next, slot_entry_.end(), KeyIndex::kNone);
    time_ = next;
  } else {
    // Mostly-live tree: double the slot space instead (keeps amortized O(1)
    // slot assignment even for scans that never reuse).
    cap_ *= 2;
  }
  slot_entry_.resize(cap_, KeyIndex::kNone);
  fen_rebuild();
}

void StackDistanceTracker::reindex() {
  for (std::uint32_t pos = 0; pos < index_.capacity(); ++pos) {
    const std::uint32_t slot = index_.value(pos);
    if (slot < kInFront) slot_entry_[slot] = pos;
  }
}

std::uint64_t StackDistanceTracker::access(std::uint64_t key) {
  // Move-to-front scan: @p key goes on top and each front key moves down
  // one place until the one that held @p key, whose place it fills.
  std::uint64_t carry = key;
  for (std::uint32_t p = 0; p < front_size_; ++p) {
    std::swap(carry, front_[p]);
    if (carry == key) return p;
  }
  // Not in the front: every front key moved down one place, and the carry
  // is the old last key (or @p key itself, into an empty front).
  const bool evict = front_size_ == kFront;
  if (!evict) front_[front_size_++] = carry;
  std::uint64_t distance = kCold;
  const std::uint32_t pos = index_.find(key);
  if (pos != KeyIndex::kNone) {
    const std::uint32_t slot = index_.value(pos);
    distance = deep_distance(slot);
    fen_add(slot, -1);
    slot_entry_[slot] = KeyIndex::kNone;
    index_.value(pos) = kInFront;
  }
  if (evict) {
    // The evicted key is more recent than every deep key: it takes the
    // next slot.
    if (time_ == cap_) compact_or_grow();
    const std::uint32_t out = index_.find(carry);
    index_.value(out) = time_;
    slot_entry_[time_] = out;
    fen_add(time_, +1);
    ++time_;
  }
  if (pos == KeyIndex::kNone) {
    const std::size_t cap = index_.capacity();
    index_.insert(key, kInFront);
    if (index_.capacity() != cap) reindex();
  }
  return distance;
}

std::uint64_t StackDistanceTracker::peek(std::uint64_t key) const {
  for (std::uint32_t p = 0; p < front_size_; ++p) {
    if (front_[p] == key) return p;
  }
  const std::uint32_t pos = index_.find(key);
  if (pos == KeyIndex::kNone) return kCold;
  return deep_distance(index_.value(pos));
}

// ---------------------------------------------------------------------------
// ReuseHistogram
// ---------------------------------------------------------------------------

std::uint64_t ReuseHistogram::bucket_lo(std::size_t i) noexcept {
  if (i < kExact) return i;
  const std::size_t octave = 6 + (i - kExact) / kSub;
  const std::size_t sub = (i - kExact) % kSub;
  return (std::uint64_t{1} << octave) +
         static_cast<std::uint64_t>(sub) * (std::uint64_t{1} << (octave - 3));
}

std::uint64_t ReuseHistogram::bucket_hi(std::size_t i) noexcept {
  if (i < kExact) return i + 1;
  const std::size_t octave = 6 + (i - kExact) / kSub;
  return bucket_lo(i) + (std::uint64_t{1} << (octave - 3));
}

void ReuseHistogram::merge(const ReuseHistogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  finite_ += other.finite_;
  cold_ += other.cold_;
}

double ReuseHistogram::hit_probability(double distance, std::size_t sets,
                                       std::size_t ways) {
  if (ways == 0 || sets == 0) return 0.0;
  if (distance < static_cast<double>(ways)) return 1.0;  // cannot be evicted
  // The distance-many distinct intervening lines scatter uniformly over the
  // sets; the access hits iff fewer than `ways` landed in its own set.
  // Binomial(distance, 1/sets) ~= Poisson(distance/sets).
  const double lambda = distance / static_cast<double>(sets);
  double term = std::exp(-lambda);  // underflows to 0 for hopeless lambdas
  if (term == 0.0) return 0.0;
  double cdf = term;
  for (std::size_t j = 1; j < ways; ++j) {
    term *= lambda / static_cast<double>(j);
    cdf += term;
  }
  return std::min(1.0, cdf);
}

double ReuseHistogram::expected_hits(std::size_t sets,
                                     std::size_t ways) const {
  double hits = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double mid = 0.5 * (static_cast<double>(bucket_lo(i)) +
                              static_cast<double>(bucket_hi(i) - 1));
    hits += static_cast<double>(counts_[i]) * hit_probability(mid, sets, ways);
  }
  return hits;
}

double ReuseHistogram::fraction_below(double capacity) const {
  if (total() == 0) return 0.0;
  double below = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double lo = static_cast<double>(bucket_lo(i));
    const double hi = static_cast<double>(bucket_hi(i));
    if (capacity >= hi) {
      below += static_cast<double>(counts_[i]);
    } else if (capacity > lo) {
      below += static_cast<double>(counts_[i]) * (capacity - lo) / (hi - lo);
    }
  }
  return below / static_cast<double>(total());
}

MissSplit miss_split(const ReuseHistogram& h, std::size_t sets,
                     std::size_t ways) {
  MissSplit out;
  out.cold = static_cast<double>(h.cold());
  const double capacity_lines =
      static_cast<double>(sets) * static_cast<double>(ways);
  const auto& counts = h.buckets();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double mid =
        0.5 * (static_cast<double>(ReuseHistogram::bucket_lo(i)) +
               static_cast<double>(ReuseHistogram::bucket_hi(i) - 1));
    const double p = ReuseHistogram::hit_probability(mid, sets, ways);
    const double n = static_cast<double>(counts[i]);
    out.hits += n * p;
    if (mid >= capacity_lines) {
      out.capacity += n * (1.0 - p);
    } else {
      out.conflict += n * (1.0 - p);
    }
  }
  return out;
}

}  // namespace paxsim::model
