// bench/e2e/spans.hpp — in-memory host-time spans for paxbench's traced run.
//
// A span records one call the benchmark makes into a paxsim layer: name,
// layer, start, end, the span that caused it and the plan cell it serves
// (spans of one cell share that id).  Spans stay in memory and are written
// out as one JSON document when the benchmark ends.  A disabled recorder
// reads no clock and stores nothing, so untraced rounds pay only a branch.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace paxbench {

/// The paxsim layer a span's call lands in.  kBench is the benchmark's own
/// bookkeeping (a round, a plan phase); its self time is what no layer
/// call covers.
enum class Layer : std::uint8_t { kBench, kHarness, kSim, kServe, kStore, kModel };
inline constexpr std::size_t kLayerCount = 6;

[[nodiscard]] std::string_view layer_name(Layer layer) noexcept;

struct Span {
  std::string name;
  Layer layer = Layer::kBench;
  std::uint32_t parent = 0;  ///< 0: a root span
  std::uint32_t cell = 0;    ///< plan-order cell id, 0: not a cell
  double start_s = 0;        ///< seconds since the recorder was created
  double end_s = 0;
};

/// count, summed duration and summed self time (duration minus the part
/// covered by child spans) of one layer's spans.
struct LayerTotals {
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
using LayerTable = std::array<LayerTotals, kLayerCount>;

class Spans {
 public:
  explicit Spans(bool enabled);
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its id (ids start at 1; 0 when disabled).
  /// Thread-safe: engine workers open cell spans concurrently.
  std::uint32_t begin(std::string_view name, Layer layer, std::uint32_t parent,
                      std::uint32_t cell);
  void end(std::uint32_t id);

  /// Id the next begin() will return: spans opened after this call have
  /// ids >= it, which is how a round selects its own spans.
  [[nodiscard]] std::uint32_t next_id() const;
  [[nodiscard]] double duration(std::uint32_t id) const;
  /// Durations of @p parent's direct children, in opening order.
  [[nodiscard]] std::vector<double> child_durations(std::uint32_t parent) const;
  /// Per-layer totals over the spans with id >= @p first_id.
  [[nodiscard]] LayerTable layer_totals(std::uint32_t first_id = 1) const;

  /// {"schema_version":1,"kind":"paxbench_trace",...}: every span plus the
  /// per-layer totals.
  void write_json(std::ostream& os, std::string_view workload) const;

  /// RAII span; a no-op on a disabled recorder.
  class Scope {
   public:
    Scope(Spans& spans, std::string_view name, Layer layer,
          std::uint32_t parent = 0, std::uint32_t cell = 0)
        : spans_(spans), id_(spans.begin(name, layer, parent, cell)) {}
    ~Scope() { spans_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

   private:
    Spans& spans_;
    std::uint32_t id_;
  };

 private:
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;   ///< guards spans_
  std::vector<Span> spans_;  ///< spans_[id - 1]
};

}  // namespace paxbench
