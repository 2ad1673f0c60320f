#include "check/invariants.hpp"

#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

namespace paxsim::check {

namespace {

const char* state_name(sim::LineState s) noexcept {
  switch (s) {
    case sim::LineState::kInvalid: return "I";
    case sim::LineState::kShared: return "S";
    case sim::LineState::kExclusive: return "E";
    case sim::LineState::kModified: return "M";
  }
  return "?";
}

std::string hex(sim::Addr a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

bool owned(sim::LineState s) noexcept {
  return s == sim::LineState::kExclusive || s == sim::LineState::kModified;
}

}  // namespace

void InvariantAuditor::record(const char* rule, std::string detail) {
  ++violations_total_;
  if (violations_.size() < max_records_) {
    violations_.push_back(Violation{rule, std::move(detail)});
  }
}

void InvariantAuditor::audit(const sim::Machine& m) {
  ++audits_run_;
  audit_coherence(m);
  audit_tlbs(m);
  audit_structures(m);
}

void InvariantAuditor::audit_coherence(const sim::Machine& m) {
  // Coherence is tracked per *domain* — one per outermost cache instance
  // (every core on private-L2 topologies, every chip when the outer level is
  // chip-shared).  Each domain owns one outer residency map; cores keep
  // their own L1 (and, on three-level topologies, private mid-L2) maps.
  const int ncores = m.topology().total_cores();
  const int ndomains = m.domain_count();

  struct CoreLines {
    std::unordered_map<sim::Addr, sim::LineState> l1;
    std::unordered_map<sim::Addr, sim::LineState> mid;  // 3-level only
    bool has_mid = false;
  };
  std::vector<CoreLines> per(static_cast<std::size_t>(ncores));
  std::vector<std::unordered_map<sim::Addr, sim::LineState>> outer(
      static_cast<std::size_t>(ndomains));
  // Ordered so violation examples are recorded in a deterministic order
  // (record() keeps only the first few as samples).
  std::set<sim::Addr> all_lines;
  for (int c = 0; c < ncores; ++c) {
    const sim::Core& core = m.core_by_id(c);
    CoreLines& cl = per[static_cast<std::size_t>(c)];
    for (const auto& lv : core.l1d().live_lines()) {
      cl.l1.emplace(lv.line_addr, lv.state);
      all_lines.insert(lv.line_addr);
    }
    if (core.l3() != nullptr) {
      cl.has_mid = true;
      for (const auto& lv : core.l2().live_lines()) {
        cl.mid.emplace(lv.line_addr, lv.state);
        all_lines.insert(lv.line_addr);
      }
    }
  }
  for (int d = 0; d < ndomains; ++d) {
    for (const auto& lv : m.domain_outer_cache(d).live_lines()) {
      outer[static_cast<std::size_t>(d)].emplace(lv.line_addr, lv.state);
      all_lines.insert(lv.line_addr);
    }
  }

  // swmr + inclusion, per line.
  for (const sim::Addr line : all_lines) {
    int owner = -1;       // domain holding the line E/M in its outer cache
    int holders = 0;      // domains with the line live anywhere
    for (int d = 0; d < ndomains; ++d) {
      const auto& om = outer[static_cast<std::size_t>(d)];
      const auto oit = om.find(line);
      bool here = oit != om.end();
      for (const int c : m.domain_cores(d)) {
        const CoreLines& cl = per[static_cast<std::size_t>(c)];
        if (cl.l1.count(line) != 0 || cl.mid.count(line) != 0) here = true;
      }
      if (here) ++holders;
      if (oit != om.end() && owned(oit->second)) {
        if (owner >= 0) {
          record("swmr", "line " + hex(line) + " owned by domains " +
                             std::to_string(owner) + " and " +
                             std::to_string(d));
        }
        owner = d;
      }

      // Inclusion + state consistency inside one domain.
      int inner_owner = -1;  // core of this domain holding the line E/M in L1
      for (const int c : m.domain_cores(d)) {
        const CoreLines& cl = per[static_cast<std::size_t>(c)];
        const auto l1it = cl.l1.find(line);
        const auto midit = cl.mid.find(line);
        if (cl.has_mid && midit != cl.mid.end() && oit == om.end()) {
          record("inclusion", "core " + std::to_string(c) + " holds line " +
                                  hex(line) + " in its mid-level L2 (" +
                                  state_name(midit->second) +
                                  ") without an outer copy");
        }
        if (l1it == cl.l1.end()) continue;
        const sim::LineState s1 = l1it->second;
        if (cl.has_mid && midit == cl.mid.end()) {
          record("inclusion", "core " + std::to_string(c) + " holds line " +
                                  hex(line) + " in L1 (" + state_name(s1) +
                                  ") without a mid-level L2 copy");
        }
        if (oit == om.end()) {
          record("inclusion", "core " + std::to_string(c) + " holds line " +
                                  hex(line) + " in L1 (" + state_name(s1) +
                                  ") without an outer copy");
          continue;
        }
        const sim::LineState s2 = oit->second;
        if (m.domain_cores(d).size() == 1) {
          // Private outer cache: the seed's exact state rule.
          const bool ok = s1 == sim::LineState::kShared
                              ? s2 == sim::LineState::kShared
                              : owned(s2);
          if (!ok) {
            record("inclusion", "core " + std::to_string(c) + " line " +
                                    hex(line) + " L1=" + state_name(s1) +
                                    " vs outer=" + state_name(s2));
          }
        } else {
          // Shared outer cache: an owned L1 copy needs an owned outer copy;
          // a Shared L1 copy may sit under any outer state (intra-domain
          // sharing keeps the domain-owned outer line Exclusive/Modified).
          if (owned(s1)) {
            if (!owned(s2)) {
              record("inclusion", "core " + std::to_string(c) + " line " +
                                      hex(line) + " L1=" + state_name(s1) +
                                      " vs shared outer=" + state_name(s2));
            }
            if (inner_owner >= 0) {
              record("swmr", "line " + hex(line) +
                                 " owned E/M in L1 by sibling cores " +
                                 std::to_string(inner_owner) + " and " +
                                 std::to_string(c));
            }
            inner_owner = c;
          }
        }
      }
      // Intra-domain SWMR: an L1 owner excludes sibling L1/mid copies.
      if (inner_owner >= 0) {
        for (const int c : m.domain_cores(d)) {
          if (c == inner_owner) continue;
          const CoreLines& cl = per[static_cast<std::size_t>(c)];
          if (cl.l1.count(line) != 0 || cl.mid.count(line) != 0) {
            record("swmr", "line " + hex(line) + " owned E/M in L1 by core " +
                               std::to_string(inner_owner) +
                               " but also resident in sibling core " +
                               std::to_string(c));
          }
        }
      }
    }
    if (owner >= 0 && holders > 1) {
      record("swmr", "line " + hex(line) + " owned E/M by domain " +
                         std::to_string(owner) + " but resident in " +
                         std::to_string(holders) + " domains");
    }
  }
}

void InvariantAuditor::audit_tlbs(const sim::Machine& m) {
  const int ncores = m.topology().total_cores();
  for (int c = 0; c < ncores; ++c) {
    const sim::Core& core = m.core_by_id(c);
    for (const auto& e : core.dtlb().table().live_lines()) {
      if (data_pages_.count(e.line_addr) == 0) {
        record("tlb", "core " + std::to_string(c) + " DTLB entry for page " +
                          hex(e.line_addr) + " never observed in the stream");
      }
    }
    for (const auto& e : core.itlb().table().live_lines()) {
      if (code_pages_.count(e.line_addr) == 0) {
        record("tlb", "core " + std::to_string(c) + " ITLB entry for page " +
                          hex(e.line_addr) + " never observed in the stream");
      }
    }
  }
}

void InvariantAuditor::audit_structures(const sim::Machine& m) {
  const int ncores = m.topology().total_cores();
  std::string why;
  for (int c = 0; c < ncores; ++c) {
    const sim::Core& core = m.core_by_id(c);
    std::vector<std::pair<const char*, const sim::SetAssocCache*>> structs = {
        {"L1D", &core.l1d()},
        {"ITLB", &core.itlb().table()},
        {"DTLB", &core.dtlb().table()},
    };
    // The core's L2 is audited here only when it owns the storage; a
    // chip-shared cache is audited once per domain below.
    if (core.owns_l2()) structs.emplace_back("L2", &core.l2());
    for (const auto& s : structs) {
      if (!s.second->audit(&why)) {
        record("structure",
               std::string(s.first) + " of core " + std::to_string(c) + ": " + why);
      }
    }
    if (!core.audit_fast_entries(&why)) {
      record("fastpath", why);
    }
  }
  if (m.chip_domains()) {
    for (int d = 0; d < m.domain_count(); ++d) {
      if (!m.domain_outer_cache(d).audit(&why)) {
        record("structure", "shared outer cache of domain " +
                                std::to_string(d) + ": " + why);
      }
    }
  }
}

}  // namespace paxsim::check
