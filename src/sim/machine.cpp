#include "sim/machine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace paxsim::sim {

using perf::Event;

Machine::Machine(const MachineParams& p) : params_(p) {
  const Topology& topo = params_.topology;
  std::string why;
  if (!topo.validate_for_sim(&why)) {
    throw std::invalid_argument("paxsim: unsupported machine topology (" +
                                topo.name + "): " + why);
  }
  remote_extra_ = static_cast<double>(topo.remote_node_extra_latency);

  // One memory controller per NUMA node (the Paxville topology's single
  // node is the calibrated shared north bridge).
  mcs_.reserve(topo.nodes.size());
  for (const MemNode& n : topo.nodes) {
    mcs_.emplace_back(n.read_occupancy, n.write_occupancy);
  }
  home_node_.assign(static_cast<std::size_t>(topo.packages), 0);
  for (std::size_t n = 0; n < topo.nodes.size(); ++n) {
    for (const int pkg : topo.nodes[n].home_packages) {
      home_node_[static_cast<std::size_t>(pkg)] = static_cast<int>(n);
    }
  }

  // One link per package, bound to its local node for the plain
  // read()/write() path (the prefetcher's).
  buses_.reserve(static_cast<std::size_t>(topo.packages));
  for (int c = 0; c < topo.packages; ++c) {
    const std::size_t node = static_cast<std::size_t>(home_node_[static_cast<std::size_t>(c)]);
    buses_.emplace_back(topo.link_read_occupancy, topo.link_write_occupancy,
                        &mcs_[node],
                        static_cast<double>(topo.nodes[node].latency));
  }

  // Chip-shared outermost caches when the outer level's sharing scope is
  // per-chip; otherwise every core owns its outer level (Paxville).
  const TopoCacheLevel& outer_level = topo.levels.back();
  chip_domains_ = outer_level.scope == SharingScope::kPerChip;
  if (chip_domains_) {
    chip_caches_.reserve(static_cast<std::size_t>(topo.packages));
    for (int c = 0; c < topo.packages; ++c) {
      chip_caches_.push_back(
          std::make_unique<SetAssocCache>(outer_level.geometry));
    }
  }

  cores_.reserve(static_cast<std::size_t>(topo.total_cores()));
  for (int chip = 0; chip < topo.packages; ++chip) {
    SetAssocCache* shared =
        chip_domains_ ? chip_caches_[static_cast<std::size_t>(chip)].get()
                      : nullptr;
    for (int core = 0; core < topo.cores_per_package; ++core) {
      cores_.push_back(
          std::make_unique<Core>(params_, this, chip, core, shared));
    }
  }

  // Coherence domains: one per outermost cache instance.
  domain_count_ = chip_domains_ ? topo.packages : topo.total_cores();
  domain_of_core_.resize(cores_.size());
  domain_cores_.assign(static_cast<std::size_t>(domain_count_), {});
  domain_chip_.assign(static_cast<std::size_t>(domain_count_), 0);
  for (int c = 0; c < static_cast<int>(cores_.size()); ++c) {
    const int d = chip_domains_ ? cores_[static_cast<std::size_t>(c)]->chip_index() : c;
    domain_of_core_[static_cast<std::size_t>(c)] = d;
    domain_cores_[static_cast<std::size_t>(d)].push_back(c);
    domain_chip_[static_cast<std::size_t>(d)] =
        cores_[static_cast<std::size_t>(c)]->chip_index();
  }
  outer_.resize(static_cast<std::size_t>(domain_count_));
  for (int d = 0; d < domain_count_; ++d) {
    outer_[static_cast<std::size_t>(d)] =
        chip_domains_ ? chip_caches_[static_cast<std::size_t>(d)].get()
                      : &cores_[static_cast<std::size_t>(d)]->outer_cache();
  }
  if (chip_domains_) {
    for (int c = 0; c < static_cast<int>(cores_.size()); ++c) {
      for (const int o : domain_cores_[static_cast<std::size_t>(domain_of_core_[static_cast<std::size_t>(c)])]) {
        if (o != c) {
          cores_[static_cast<std::size_t>(c)]->add_domain_sibling(
              cores_[static_cast<std::size_t>(o)].get());
        }
      }
    }
  }
}

double Machine::wall_time() const noexcept {
  double t = 0;
  for (const auto& c : cores_) {
    const Core& core_ref = *c;
    for (int i = 0; i < core_ref.smt_count(); ++i) {
      t = std::max(t, core_ref.context(i).now());
    }
  }
  return t;
}

void Machine::set_trace_sink(TraceSink* sink) {
  if (sink != nullptr && sink_ != nullptr && sink != sink_) {
    throw std::logic_error(
        "paxsim: the machine already carries a trace sink (one observer "
        "per machine)");
  }
  sink_ = sink;
  for (auto& c : cores_) c->set_trace_sink(sink);
}

void Machine::reset() noexcept {
  for (auto& mc : mcs_) mc.reset();
  for (auto& b : buses_) b.reset();
  for (auto& c : cores_) c->reset();
}

bool Machine::invalidate_domain(int d, Addr line_addr) noexcept {
  if (!chip_domains_) {
    // Private-outer topologies: the domain is exactly one core, and this is
    // the seed machine's remote-invalidate path, unchanged.
    return cores_[static_cast<std::size_t>(d)]->invalidate_line(line_addr);
  }
  for (const int c : domain_cores_[static_cast<std::size_t>(d)]) {
    cores_[static_cast<std::size_t>(c)]->invalidate_inner(line_addr);
  }
  return chip_caches_[static_cast<std::size_t>(d)]->invalidate(line_addr);
}

bool Machine::downgrade_domain(int d, Addr line_addr) noexcept {
  if (!chip_domains_) {
    return cores_[static_cast<std::size_t>(d)]->downgrade_line(line_addr);
  }
  for (const int c : domain_cores_[static_cast<std::size_t>(d)]) {
    cores_[static_cast<std::size_t>(c)]->downgrade_inner(line_addr);
  }
  return chip_caches_[static_cast<std::size_t>(d)]->downgrade_to_shared(line_addr);
}

LineState Machine::coherent_fill(int filler_core, Addr line_addr, bool is_store,
                                 HwContext& ctx) noexcept {
  const int self_d = domain_of_core_[static_cast<std::size_t>(filler_core)];
  if (is_store) {
    // Read-for-ownership: every remote copy dies.
    invalidate_remote(self_d, line_addr, ctx);
    return LineState::kModified;
  }
  bool shared = false;
  for (int d = 0; d < domain_count_; ++d) {
    if (d == self_d || !outer_[static_cast<std::size_t>(d)]->contains(line_addr)) {
      continue;
    }
    shared = true;
    if (downgrade_domain(d, line_addr)) {
      ctx.counters_->add(Event::kBusTransactions, 1);
      ctx.counters_->add(Event::kBusWrites, 1);
      memory_write(domain_chip_[static_cast<std::size_t>(d)], line_addr,
                   ctx.now());
    }
  }
  return shared ? LineState::kShared : LineState::kExclusive;
}

void Machine::invalidate_remote(int self_d, Addr line_addr,
                                HwContext& ctx) noexcept {
  for (int d = 0; d < domain_count_; ++d) {
    if (d == self_d || !outer_[static_cast<std::size_t>(d)]->contains(line_addr)) {
      continue;
    }
    ctx.counters_->add(Event::kL2Invalidations, 1);
    if (invalidate_domain(d, line_addr)) {
      // Dirty remote copy: implicit writeback on the remote package's bus.
      ctx.counters_->add(Event::kBusTransactions, 1);
      ctx.counters_->add(Event::kBusWrites, 1);
      memory_write(domain_chip_[static_cast<std::size_t>(d)], line_addr,
                   ctx.now());
    }
  }
}

void Machine::store_upgrade(int core_id, Addr line_addr, HwContext& ctx) noexcept {
  invalidate_remote(domain_of_core_[static_cast<std::size_t>(core_id)],
                    line_addr, ctx);
  // Intra-domain: sibling cores sharing the writer's outer cache drop their
  // inner copies so the writer becomes the sole holder (no-op by
  // construction on private-outer topologies).
  cores_[static_cast<std::size_t>(core_id)]->snoop_siblings(line_addr,
                                                            /*is_store=*/true);
}

unsigned Machine::holders_of(Addr line_addr) const noexcept {
  unsigned mask = 0;
  for (int d = 0; d < domain_count_; ++d) {
    if (outer_[static_cast<std::size_t>(d)]->contains(line_addr)) mask |= 1u << d;
  }
  return mask;
}

}  // namespace paxsim::sim
