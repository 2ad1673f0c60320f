// Unit tests for the indexed min-heap behind the runtime's and harness's
// min-clock scheduling: ordering, the (key, id) deterministic tie-break
// that mirrors the linear scans it replaced, and a randomized churn
// cross-check against a reference linear scan.
#include "xomp/min_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace paxsim::xomp {
namespace {

/// The scan the heap replaced: first strictly smaller key wins, so equal
/// keys resolve to the lowest id.  Returns -1 when nothing is active.
int linear_pick(const std::vector<double>& key, const std::vector<bool>& in) {
  int best = -1;
  for (int id = 0; id < static_cast<int>(key.size()); ++id) {
    if (!in[static_cast<std::size_t>(id)]) continue;
    if (best < 0 || key[static_cast<std::size_t>(id)] <
                        key[static_cast<std::size_t>(best)]) {
      best = id;
    }
  }
  return best;
}

TEST(IndexedMinHeapTest, OrdersByKeyThenId) {
  IndexedMinHeap h(4);
  h.push(2, 5.0);
  h.push(0, 5.0);
  h.push(1, 3.0);
  h.push(3, 4.0);
  EXPECT_EQ(h.top(), 1);
  h.update(1, 9.0);
  EXPECT_EQ(h.top(), 3);
  h.remove(3);
  EXPECT_EQ(h.top(), 0) << "equal keys must resolve to the lowest id";
  h.update(2, 5.0);  // same-key update keeps order
  EXPECT_EQ(h.top(), 0);
  h.pop();
  EXPECT_EQ(h.top(), 2);
  h.pop();
  EXPECT_EQ(h.top(), 1);
  h.pop();
  EXPECT_TRUE(h.empty());
}

TEST(IndexedMinHeapTest, ContainsAndKeyTrackMembership) {
  IndexedMinHeap h(3);
  EXPECT_FALSE(h.contains(0));
  h.push(0, 1.5);
  EXPECT_TRUE(h.contains(0));
  EXPECT_DOUBLE_EQ(h.key_of(0), 1.5);
  h.remove(0);
  EXPECT_FALSE(h.contains(0));
  EXPECT_EQ(h.size(), 0u);
}

TEST(IndexedMinHeapTest, MatchesLinearScanUnderChurn) {
  constexpr int kN = 24;
  std::mt19937_64 rng(7);
  IndexedMinHeap h(kN);
  std::vector<double> key(kN, 0.0);
  std::vector<bool> in(kN, false);
  auto refill = [&] {
    for (int id = 0; id < kN; ++id) {
      key[static_cast<std::size_t>(id)] = static_cast<double>(rng() % 1000);
      h.push(id, key[static_cast<std::size_t>(id)]);
      in[static_cast<std::size_t>(id)] = true;
    }
  };
  refill();
  for (int step = 0; step < 20000; ++step) {
    const int expect = linear_pick(key, in);
    if (expect < 0) {
      ASSERT_TRUE(h.empty());
      refill();
      continue;
    }
    ASSERT_FALSE(h.empty());
    ASSERT_EQ(h.top(), expect) << "heap pick diverged from the linear scan";
    ASSERT_DOUBLE_EQ(h.key_of(expect), key[static_cast<std::size_t>(expect)]);
    switch (rng() % 4) {
      case 0:  // the picked entity's clock advances (the run-loop pattern)
        key[static_cast<std::size_t>(expect)] +=
            static_cast<double>(rng() % 50);
        h.update(expect, key[static_cast<std::size_t>(expect)]);
        break;
      case 1:  // the picked entity finishes
        h.pop();
        in[static_cast<std::size_t>(expect)] = false;
        break;
      case 2: {  // an arbitrary entity is withdrawn
        const int id = static_cast<int>(rng() % kN);
        if (in[static_cast<std::size_t>(id)]) {
          h.remove(id);
          in[static_cast<std::size_t>(id)] = false;
        }
        break;
      }
      default: {  // re-admission or an arbitrary key refresh (repin pattern)
        const int id = static_cast<int>(rng() % kN);
        if (!in[static_cast<std::size_t>(id)]) {
          key[static_cast<std::size_t>(id)] =
              static_cast<double>(rng() % 1000);
          h.push(id, key[static_cast<std::size_t>(id)]);
          in[static_cast<std::size_t>(id)] = true;
        } else {
          key[static_cast<std::size_t>(id)] +=
              static_cast<double>(rng() % 10);
          h.update(id, key[static_cast<std::size_t>(id)]);
        }
        break;
      }
    }
  }
}

TEST(IndexedMinHeapTest, TieStormDequeuesInExplicitTieOrder) {
  // The runtime's ready-heap invariant: when many entries share one virtual
  // clock (a tie storm — every thread synced by a barrier), dequeue order
  // must follow the explicit tie value (the context flat cpu id), not the
  // insertion order or the id numbering.  Push in adversarial orders with
  // ties deliberately permuted against the ids and expect the same total
  // order every time.
  constexpr int kN = 16;
  const double kClock = 42.0;
  // tie[i]: a fixed permutation that disagrees with id order.
  int tie[kN];
  for (int i = 0; i < kN; ++i) tie[i] = (kN - 1 - i + 5) % kN;
  std::vector<int> expected(kN);
  for (int i = 0; i < kN; ++i) expected[static_cast<std::size_t>(i)] = i;
  std::sort(expected.begin(), expected.end(),
            [&](int a, int b) { return tie[a] < tie[b]; });

  std::mt19937 rng(7);
  std::vector<int> order(kN);
  for (int i = 0; i < kN; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int round = 0; round < 50; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    IndexedMinHeap h(kN);
    for (const int id : order) h.push(id, kClock, tie[id]);
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(h.top(), expected[static_cast<std::size_t>(i)])
          << "round " << round << " position " << i;
      EXPECT_EQ(h.tie_of(h.top()), tie[h.top()]);
      h.pop();
    }
    EXPECT_TRUE(h.empty());
  }
}

TEST(IndexedMinHeapTest, DefaultTieIsTheIdItself) {
  // Two-argument push must keep the historical "lowest id wins" tie-break
  // so pre-parallel callers (and their golden signatures) are unchanged.
  IndexedMinHeap h(4);
  h.push(3, 1.0);
  h.push(1, 1.0);
  h.push(2, 1.0);
  h.push(0, 5.0);
  EXPECT_EQ(h.top(), 1);
  h.pop();
  EXPECT_EQ(h.top(), 2);
  h.pop();
  EXPECT_EQ(h.top(), 3);
  h.pop();
  EXPECT_EQ(h.top(), 0);
}

}  // namespace
}  // namespace paxsim::xomp
