// Seeded re-introduction of the PR 7 FT transpose race at its original
// code shape: ONE pencil buffer member shared by every rank.  Under the
// former host-parallel backend each rank's body assigned and filled the
// same vector concurrently.  The fix (see src/npb/kernels/ft.cpp) is a
// per-rank pencils_[rank] pool; paxlint must flag this shape.
//
// Fixtures are never compiled — they are analyzer inputs for the golden
// tests in tests/lint/paxlint_test.cpp.
#include <cstddef>
#include <vector>

namespace fixture {

struct Ctx {
  void load(std::size_t);
  void store(std::size_t);
};

struct Team {
  template <typename Body>
  void parallel_for(std::size_t lo, std::size_t hi, int sched, int blk,
                    Body&& body);
};

class FtPencil {
 public:
  void transpose(Team& team) {
    team.parallel_for(
        0, n_, 0, 0, [&](std::size_t col, Ctx& ctx, int /*rank*/) {
          (void)ctx;
          pencil_.assign(n_, 0.0);  // every rank clears the same buffer
          for (std::size_t r = 0; r < n_; ++r) {
            pencil_[r] = static_cast<double>(r + col);
          }
          sum_[col] = pencil_[n_ - 1];
        });
  }

 private:
  std::size_t n_ = 64;
  std::vector<double> pencil_;  // the bug: one buffer, not per-rank
  std::vector<double> sum_;
};

}  // namespace fixture
