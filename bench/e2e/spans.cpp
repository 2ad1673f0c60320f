// bench/e2e/spans.cpp
//
// paxlint: allow-file(wallclock) -- host-time spans are the benchmark's measurement; no span value reaches simulated state
#include "spans.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "report/json.hpp"

namespace paxbench {

std::string_view layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kHarness: return "harness";
    case Layer::kSim: return "sim";
    case Layer::kServe: return "serve";
    case Layer::kStore: return "store";
    case Layer::kModel: return "model";
  }
  return "bench";
}

Spans::Spans(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Spans::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::uint32_t Spans::begin(std::string_view name, Layer layer,
                           std::uint32_t parent, std::uint32_t cell) {
  if (!enabled_) return 0;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), layer, parent, cell, t, t});
  return static_cast<std::uint32_t>(spans_.size());
}

void Spans::end(std::uint32_t id) {
  if (id == 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_s = t;
}

std::uint32_t Spans::next_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::uint32_t>(spans_.size() + 1);
}

double Spans::duration(std::uint32_t id) const {
  if (id == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[id - 1];
  return s.end_s - s.start_s;
}

std::vector<double> Spans::child_durations(std::uint32_t parent) const {
  std::vector<double> out;
  if (parent == 0) return out;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = parent; i < spans_.size(); ++i) {
    if (spans_[i].parent == parent) {
      out.push_back(spans_[i].end_s - spans_[i].start_s);
    }
  }
  return out;
}

LayerTable Spans::layer_totals(std::uint32_t first_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t first = first_id == 0 ? 0 : first_id - 1;
  // Children's intervals per parent, clipped to the parent; a parent's self
  // time is its duration minus the union of those intervals (children run
  // concurrently on engine workers, so they may overlap one another).
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const std::uint32_t p = spans_[i].parent;
    if (p == 0 || p - 1 < first) continue;
    const Span& parent = spans_[p - 1];
    const double lo = std::max(spans_[i].start_s, parent.start_s);
    const double hi = std::min(spans_[i].end_s, parent.end_s);
    if (hi > lo) children[p - 1].emplace_back(lo, hi);
  }
  LayerTable table{};
  for (std::size_t i = first; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double reach = -1;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const double dur = spans_[i].end_s - spans_[i].start_s;
    LayerTotals& t = table[static_cast<std::size_t>(spans_[i].layer)];
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - covered;
  }
  return table;
}

void Spans::write_json(std::ostream& os, std::string_view workload) const {
  const LayerTable totals = layer_totals();
  std::lock_guard<std::mutex> lock(mu_);
  paxsim::report::Json j(os);
  j.begin_document("paxbench_trace");
  j.field("workload", workload);
  j.key("layers").array();
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    j.object()
        .field("layer", layer_name(static_cast<Layer>(l)))
        .field("count", totals[l].count)
        .field("total_s", totals[l].total_s)
        .field("self_s", totals[l].self_s)
        .end();
  }
  j.end();
  j.key("spans").array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    j.object()
        .field("id", static_cast<std::uint64_t>(i + 1))
        .field("parent", static_cast<std::uint64_t>(s.parent))
        .field("cell", static_cast<std::uint64_t>(s.cell))
        .field("name", s.name)
        .field("layer", layer_name(s.layer))
        .field("start_s", s.start_s)
        .field("end_s", s.end_s)
        .end();
  }
  j.end();
  j.finish();
}

}  // namespace paxbench
