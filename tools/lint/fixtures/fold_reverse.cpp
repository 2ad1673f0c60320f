// Fold-order fixture: per-rank shard reductions that fold in descending
// or reversed order (flagged — shard folds must run in ascending rank
// order for bit-identical results), plus two clean loops:
// a descending element update and an ascending fold.
#include <vector>

namespace fixture {

long fold_descending(const long* shard, int nt) {
  long total = 0;
  for (int r = nt - 1; r >= 0; --r) {
    total += shard[r];  // descending fold: flagged
  }
  return total;
}

long fold_reversed(const std::vector<long>& shards) {
  long total = 0;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    total += *it;  // reversed fold: flagged
  }
  return total;
}

void scale_descending(double* v, int n) {
  for (int i = n - 1; i >= 0; --i) {
    v[i] *= 2.0;  // element update, not a fold: clean
  }
}

long fold_ascending(const long* shard, int nt) {
  long total = 0;
  for (int r = 0; r < nt; ++r) {
    total += shard[r];  // ascending fold: clean
  }
  return total;
}

}  // namespace fixture
