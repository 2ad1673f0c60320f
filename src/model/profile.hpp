// paxsim/model/profile.hpp
//
// The profiling pass of paxmodel: a sim::TraceSink that condenses one
// *serial* reference-path run into a KernelProfile — the machine-independent
// summary the analytical layer (model/predict.hpp) evaluates for any
// MachineParams and thread placement.
//
// What one serial run can say about parallel runs
// -----------------------------------------------
// The suite's loops are statically scheduled over contiguous iteration
// blocks, so the iteration-to-thread mapping under tau threads is known at
// profile time.  The profiler therefore tracks, for every candidate thread
// count tau in {1,2,4,8}, a *virtual owner* per access (which thread would
// have issued it) and maintains per-owner reuse-distance stacks: the
// resulting per-tau histograms describe each thread's private reference
// stream, including the cold-miss duplication shared data incurs when every
// owner first-touches its own copy.  Cross-owner transitions on written
// lines are recorded per tau as an 8x8 matrix — the coherence-transfer
// candidates a placement turns into cache-to-cache misses when the two
// owners land on different cores.
//
// Attachment is RAII like check::Checker: construction attaches to the
// machine, finish() (or destruction) detaches.  While attached, the
// machine takes the reference path, which reports every event; profiling
// observes and never mutates, so a profiled run's counters are
// bit-identical to an unprofiled one (test-enforced).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "model/reuse.hpp"
#include "sim/hooks.hpp"
#include "sim/machine.hpp"

namespace paxsim::model {

/// Thread counts the profiler precomputes virtual-owner streams for —
/// exactly the team sizes of the paper's Table-1 configurations.
inline constexpr std::array<int, 4> kProfiledThreadCounts{1, 2, 4, 8};

/// Index into kProfiledThreadCounts for a team size (nearest not-above
/// match; 3 threads maps to 2, anything above 8 maps to 8).
[[nodiscard]] std::size_t thread_count_index(int threads) noexcept;

/// Machine-independent summary of one profiled serial run.
struct KernelProfile {
  // ---- instruction/access mix ---------------------------------------------
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t chained_loads = 0;   ///< Dep::kChained loads (HT's overlap win)
  std::uint64_t fetches = 0;         ///< dynamic block fetches
  std::uint64_t uops = 0;            ///< total uops fetched
  std::uint64_t par_accesses = 0;    ///< accesses inside fork..join regions
  std::uint64_t par_uops = 0;        ///< uops fetched inside fork..join
  std::uint64_t runtime_accesses = 0;///< to declared runtime-internal lines

  // ---- loop structure ------------------------------------------------------
  std::uint64_t loops = 0;           ///< work-sharing loop instances
  std::uint64_t iterations = 0;      ///< loop-body iterations observed
  std::uint64_t barriers = 0;        ///< runtime barrier events
  /// Per tau: sum over loops of the largest static chunk (iterations the
  /// slowest thread runs) and of the mean chunk n/tau — their ratio is the
  /// static-schedule imbalance factor.
  std::array<double, 4> chunk_max_iters{};
  std::array<double, 4> chunk_mean_iters{};

  // ---- reuse-distance histograms ------------------------------------------
  ReuseHistogram word;               ///< 8-byte words, serial stream
  std::array<ReuseHistogram, 4> line;        ///< 64-byte lines, per tau
  std::array<ReuseHistogram, 4> store_line;  ///< store subset of `line`
  std::array<ReuseHistogram, 4> page;        ///< 4-KiB pages, per tau
  ReuseHistogram block;              ///< code blocks (trace-cache stream)
  ReuseHistogram code_page;          ///< code pages (ITLB stream)

  // ---- streaming ----------------------------------------------------------
  /// Long-distance or cold line accesses (DRAM candidates), and the subset
  /// whose predecessor line was touched recently — sequential streams the
  /// hardware prefetcher covers.
  std::uint64_t stream_candidates = 0;
  std::uint64_t streamed = 0;

  // ---- sharing ------------------------------------------------------------
  /// Per tau in {2,4,8} (index tau_idx-1): count of accesses to a line the
  /// accessing virtual owner had cached but another owner *wrote* since —
  /// the MESI invalidations a placement turns into cache-to-cache misses
  /// when the two owners land on different cores.  [from*8+to] matrix with
  /// `from` the invalidating writer.  Cold first touches are not counted
  /// (the per-owner reuse histograms already carry them), and read-read
  /// sharing never invalidates, so it is not counted either.
  std::array<std::array<std::uint64_t, 64>, 3> owner_transitions{};
  /// Serial-region (outside fork..join) accesses to lines last written by a
  /// non-master tau=8 virtual owner: the master scanning the team's partial
  /// results.  Such gather sections replicate with team size — a T-thread
  /// run scans T partial sets where the serial profile saw one.
  std::uint64_t serial_gather = 0;
  /// The line-grain subset of `serial_gather`: accesses that would actually
  /// fetch the line (first master touch, or written by another owner since
  /// the master last held it).  Scans re-read each line many times; only
  /// these events become misses when the sets replicate.
  std::uint64_t serial_gather_lines = 0;

  // ---- footprint ----------------------------------------------------------
  std::uint64_t distinct_lines = 0;
  std::uint64_t distinct_pages = 0;
  std::uint64_t distinct_blocks = 0;

  // ---- serial anchor -------------------------------------------------------
  /// Measured outcome of the profiling run itself (filled by the harness
  /// from the run's counters).  The analytical layer anchors its absolute
  /// scale against these: the profiled serial run doubles as the model's
  /// per-kernel calibration point, so configuration predictions extrapolate
  /// *relative* effects rather than absolute ones.
  struct Anchor {
    bool valid = false;
    double wall_cycles = 0;
    double cycles = 0;
    double instructions = 0;
    double l1d_refs = 0, l1d_misses = 0;
    double l2_refs = 0, l2_misses = 0;
    double tc_refs = 0, tc_misses = 0;
    double itlb_refs = 0, itlb_misses = 0;
    double dtlb_misses = 0;
    double branches = 0, mispredicts = 0;
    double bus_reads = 0, bus_writes = 0, bus_prefetches = 0;
    double prefetches_issued = 0, prefetches_useful = 0;
    double stall_mem = 0, stall_branch = 0, stall_tlb = 0, stall_fe = 0;
  } anchor;

  /// Fraction of fetched uops outside fork..join (the Amdahl serial part).
  [[nodiscard]] double serial_uop_fraction() const noexcept {
    if (uops == 0) return 0.0;
    return 1.0 - static_cast<double>(par_uops) / static_cast<double>(uops);
  }
  /// Fraction of serial-region accesses that gather parallel partials —
  /// the share of serial work expected to replicate with team size.
  [[nodiscard]] double gather_fraction() const noexcept {
    const std::uint64_t total = loads + stores;
    if (total <= par_accesses) return 0.0;
    const auto serial_acc = static_cast<double>(total - par_accesses);
    return std::min(1.0, static_cast<double>(serial_gather) / serial_acc);
  }
  /// Static-schedule imbalance factor (>= 1) for tau-index @p k.
  [[nodiscard]] double imbalance(std::size_t k) const noexcept {
    if (chunk_mean_iters[k] <= 0) return 1.0;
    const double r = chunk_max_iters[k] / chunk_mean_iters[k];
    return r < 1.0 ? 1.0 : r;
  }
};

/// TraceSink that builds a KernelProfile from the reference-path event
/// stream of a (serial) run.
class Profiler final : public sim::TraceSink {
 public:
  /// Attaches to @p machine (Machine::set_trace_sink throws
  /// std::logic_error when it already carries a sink).
  explicit Profiler(sim::Machine& machine);
  ~Profiler() override;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Detaches and returns the assembled profile.  Idempotent (subsequent
  /// calls return an empty profile).
  [[nodiscard]] KernelProfile finish();

  // ---- sim::TraceSink ------------------------------------------------------
  void on_access(const sim::HwContext& ctx, sim::Addr addr, bool is_store,
                 sim::Dep dep) override;
  void on_fetch(const sim::HwContext& ctx, sim::Addr code_addr,
                std::uint32_t uops) override;
  void on_loop(const sim::HwContext& ctx, sim::BlockId body,
               std::size_t begin, std::size_t end) override;
  void on_team(TeamEvent ev, const void* team,
               const sim::HwContext* const* members,
               std::size_t count) override;
  void on_runtime_range(sim::Addr base, std::size_t bytes) override;
  void on_sync(SyncOp op, const sim::HwContext& ctx, sim::Addr addr) override;
  void on_thread_moved(const sim::HwContext& from,
                       const sim::HwContext& to) override;

 private:
  /// Reuse distance thresholds for stream detection (in 64-byte lines):
  /// an access is a DRAM candidate when cold or with distance >= kStreamFar,
  /// and counted as streamed when line-1 was within kStreamNear.
  static constexpr std::uint64_t kStreamFar = 4096;   // 256 KiB of lines
  static constexpr std::uint64_t kStreamNear = 64;

  [[nodiscard]] bool in_runtime_range(sim::Addr addr) const noexcept;

  sim::Machine* machine_;
  bool attached_ = false;
  KernelProfile profile_;

  // Virtual-owner state: per tau-index, per owner, one line and one page
  // stack.  Index [k][owner] flattened as owner_base_[k]+owner.
  std::array<StackDistanceTracker, 15> line_stacks_;
  std::array<StackDistanceTracker, 15> page_stacks_;
  StackDistanceTracker word_stack_;
  StackDistanceTracker block_stack_;
  StackDistanceTracker code_page_stack_;
  static constexpr std::array<std::size_t, 4> owner_base_{0, 1, 3, 7};

  // Current work-sharing loop (owner attribution).
  struct LoopCursor {
    bool open = false;
    sim::BlockId body = 0;
    std::size_t begin = 0, end = 0;
    std::size_t next = 0;  ///< next iteration a body fetch accounts for
  } loop_;
  std::array<std::uint8_t, 4> owner_{};  ///< current virtual owner per tau
  int fork_depth_ = 0;

  // Per-line sharing state.  Per tau: the last writing owner, a version
  // bumped on every store, and each owner's version-at-last-access — an
  // owner re-touching the line with a newer version than it last saw was
  // invalidated in between (the MESI transfer candidate).
  struct LineShare {
    struct Tau {
      std::uint8_t last_writer = 0xFF;
      std::uint8_t valid = 0;  ///< bitmask: owners that have touched the line
      std::uint32_t version = 0;
      std::array<std::uint32_t, 8> seen{};
    };
    std::array<Tau, 3> tau{};
    bool written = false;
  };
  std::unordered_map<std::uint64_t, LineShare> shares_;

  std::vector<std::pair<sim::Addr, sim::Addr>> runtime_ranges_;
};

}  // namespace paxsim::model
