#include "sim/params.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace paxsim::sim {

const char* check_mode_name(CheckMode m) noexcept {
  switch (m) {
    case CheckMode::kOff: return "off";
    case CheckMode::kRace: return "race";
    case CheckMode::kInvariants: return "invariants";
    case CheckMode::kFull: return "full";
  }
  return "?";
}

bool parse_check_mode(const char* s, CheckMode& out) noexcept {
  for (const CheckMode m : {CheckMode::kOff, CheckMode::kRace,
                            CheckMode::kInvariants, CheckMode::kFull}) {
    if (std::strcmp(s, check_mode_name(m)) == 0) {
      out = m;
      return true;
    }
  }
  return false;
}

const char* trace_mode_name(TraceMode m) noexcept {
  switch (m) {
    case TraceMode::kOff: return "off";
    case TraceMode::kStacks: return "stacks";
    case TraceMode::kEvents: return "events";
    case TraceMode::kFull: return "full";
  }
  return "?";
}

bool parse_trace_mode(const char* s, TraceMode& out) noexcept {
  for (const TraceMode m : {TraceMode::kOff, TraceMode::kStacks,
                            TraceMode::kEvents, TraceMode::kFull}) {
    if (std::strcmp(s, trace_mode_name(m)) == 0) {
      out = m;
      return true;
    }
  }
  return false;
}

namespace {

std::size_t scale_down(std::size_t v, double factor, std::size_t floor_v) {
  const double scaled = static_cast<double>(v) / factor;
  std::size_t out = 1;
  while (out * 2 <= static_cast<std::size_t>(scaled)) out *= 2;  // round to pow2
  return std::max(out, floor_v);
}

}  // namespace

MachineParams MachineParams::scaled(double factor) const {
  MachineParams p = *this;
  if (factor <= 1.0) return p;
  for (TopoCacheLevel& lv : p.topology.levels) {
    CacheGeometry& g = lv.geometry;
    g.size_bytes = scale_down(g.size_bytes, factor, g.line_bytes * g.ways);
  }
  p.trace_cache_uops = scale_down(trace_cache_uops, factor,
                                  trace_uops_per_line * trace_cache_ways);
  p.itlb_entries = scale_down(itlb_entries, factor, itlb_ways);
  p.dtlb_entries = scale_down(dtlb_entries, factor, dtlb_ways);
  return p;
}

}  // namespace paxsim::sim
