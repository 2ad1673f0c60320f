// paxsim/check/invariants.hpp
//
// Machine-state invariant auditor: validates the structural laws the
// simulated memory system must obey at every quiescent point.  Run at sync
// boundaries (with a min-event throttle) and once at the end of a checked
// run; each audit walks every core's caches and TLBs.  There is no
// coherence directory to audit: coherence snoops the outer caches, so their
// residency is the only record of who holds a line.
//
// Families checked:
//   swmr        — single-writer/multi-reader: a line Exclusive/Modified in
//                 one core's hierarchy is resident nowhere else.
//   inclusion   — every live L1 line is backed by the same core's L2, with
//                 consistent states (L1 S => L2 S; L1 E/M => L2 E/M).
//   tlb         — every live TLB entry translates a page the observed
//                 access/fetch stream actually touched.
//   structure   — SetAssocCache self-audit (LRU stamps bounded by the
//                 clock, live lines valid and in their tag's set, MRU hints
//                 in range, no duplicate live keys in a set).
//   fastpath    — armed fast-path entries must still pass handle
//                 revalidation (Core::audit_fast_entries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/machine.hpp"

namespace paxsim::check {

/// One invariant violation.
struct Violation {
  std::string rule;    ///< family name ("swmr", "inclusion", ...)
  std::string detail;  ///< human-readable specifics (line address, states)
};

/// Stateful auditor: accumulates the observed page sets between audits and
/// keeps capped violation records across audits.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(std::size_t max_records = 32)
      : max_records_(max_records) {}

  /// Feeds the page-observation sets (from the access / fetch stream).
  void note_data_page(sim::Addr page) { data_pages_.insert(page); }
  void note_code_page(sim::Addr page) { code_pages_.insert(page); }

  /// Runs every family once against @p m.
  void audit(const sim::Machine& m);

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t violations_total() const noexcept {
    return violations_total_;
  }
  [[nodiscard]] std::uint64_t audits_run() const noexcept {
    return audits_run_;
  }

 private:
  void record(const char* rule, std::string detail);

  void audit_coherence(const sim::Machine& m);  // swmr + inclusion
  void audit_tlbs(const sim::Machine& m);
  void audit_structures(const sim::Machine& m);

  std::size_t max_records_;
  std::unordered_set<sim::Addr> data_pages_;
  std::unordered_set<sim::Addr> code_pages_;
  std::vector<Violation> violations_;
  std::uint64_t violations_total_ = 0;
  std::uint64_t audits_run_ = 0;
};

}  // namespace paxsim::check
