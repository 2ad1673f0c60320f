#include "sim/params.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/topology.hpp"

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
  p.l1d.size_bytes = scale_down(l1d.size_bytes, factor, l1d.line_bytes * l1d.ways);
  p.l2.size_bytes = scale_down(l2.size_bytes, factor, l2.line_bytes * l2.ways);
  p.trace_cache_uops = scale_down(trace_cache_uops, factor,
                                  trace_uops_per_line * trace_cache_ways);
  p.itlb_entries = scale_down(itlb_entries, factor, itlb_ways);
  p.dtlb_entries = scale_down(dtlb_entries, factor, dtlb_ways);
  if (topology != nullptr) {
    auto scaled_topo = std::make_shared<Topology>(*topology);
    for (TopoCacheLevel& lv : scaled_topo->levels) {
      lv.geometry.size_bytes =
          scale_down(lv.geometry.size_bytes, factor,
                     lv.geometry.line_bytes * lv.geometry.ways);
    }
    p.set_topology(std::move(scaled_topo));
  }
  return p;
}

MachineParams& MachineParams::set_topology(std::shared_ptr<const Topology> topo) {
  topology = std::move(topo);
  if (topology == nullptr) return *this;
  const Topology& t = *topology;
  chips = t.packages;
  cores_per_chip = t.cores_per_package;
  contexts_per_core = t.smt_per_core;
  bus_read_occupancy = t.link_read_occupancy;
  bus_write_occupancy = t.link_write_occupancy;
  if (!t.levels.empty()) {
    l1d = t.levels[0].geometry;
    l1_latency = t.levels[0].latency;
  }
  if (t.levels.size() > 1) {
    l2 = t.levels[1].geometry;
    l2_latency = t.levels[1].latency;
  }
  if (!t.nodes.empty()) {
    mem_latency = t.nodes[0].latency;
    mem_read_occupancy = t.nodes[0].read_occupancy;
    mem_write_occupancy = t.nodes[0].write_occupancy;
  }
  return *this;
}

Topology MachineParams::resolved_topology() const {
  if (topology != nullptr) return *topology;
  Topology t;
  t.name = "default";
  t.packages = chips;
  t.cores_per_package = cores_per_chip;
  t.smt_per_core = contexts_per_core;
  t.link_read_occupancy = bus_read_occupancy;  // one shared FSB per package
  t.link_write_occupancy = bus_write_occupancy;
  t.levels = {
      {"L1D", l1d, SharingScope::kPerCore, l1_latency},
      {"L2", l2, SharingScope::kPerCore, l2_latency},
  };
  t.nodes = {{mem_latency, mem_read_occupancy, mem_write_occupancy, {}}};
  for (int p2 = 0; p2 < chips; ++p2) t.nodes[0].home_packages.push_back(p2);
  return t;
}

}  // namespace paxsim::sim
