// paxsim/serve/jobs.hpp
//
// Job files — the batch input of `paxsim serve`.  A job file is one JSON
// document describing a sweep as cross-products, which expansion turns
// into a flat, deduplicated, deterministically ordered cell list:
//
//   {"schema_version": 1, "kind": "job_file",
//    "store": "results/",                      // default --store (optional)
//    "defaults": {"class": "B", "trials": 1, "seed": 314159265,
//                 "verify": true, "grain": 1, "scale": 16.0},
//    "sweeps": [
//      {"benches": "all",                      // or ["CG","FT",...]
//       "machines": ["default", "woodcrest"],  // preset | JSON path |
//                                              // "default" (optional)
//       "configs": "all",                      // or ["HT on -4-1", ...]
//       "modes": ["single", "predict"],        // single | pair | predict
//       "pairs": [["CG","FT"], ...]            // for mode "pair"
//      }, ...]}
//
// Expansion semantics, per sweep: every machine x every named configuration
// of that machine x every mode x every benchmark (or pair) x every trial
// seed (one cell for all trials when no program's seed reaches the
// simulator: npb::seed_reaches_simulator).  "configs": "all" means the
// machine's full Table-1 analogue for single/predict and the parallel rows
// only for pairs (a pair needs threads to split).  Any defaults key may be
// overridden per sweep.  Duplicate cells across sweeps collapse to their
// first occurrence, so overlapping sweeps are cheap to write.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"

namespace paxsim::serve {

/// One expanded cell of a job plan: the identity the store keys on plus
/// everything needed to compute it.
struct JobCell {
  harness::CellKey key;      ///< kind selects single / pair / prediction
  harness::StudyConfig cfg;  ///< resolved configuration (owned copy)
  harness::RunOptions opt;   ///< class/scale/verify/grain/topology applied
  /// The seed the answer runs at (key.seed, repeated here for driver
  /// convenience): the trial seed, or npb::kDefaultSeed when no program's
  /// seed reaches the simulator — a job's trials of such a kernel expand
  /// to this one cell, and the progress line's "seed" is this value.
  std::uint64_t seed = 0;
  std::string machine;       ///< the sweep's machine spec ("" = default)
};

/// A parsed + expanded job file.
struct JobPlan {
  std::string store_dir;       ///< the file's "store" member ("" if absent)
  std::vector<JobCell> cells;  ///< deduplicated, in expansion order
};

/// Parses and expands a job-file document.  On failure returns false and a
/// user-facing message naming the offending sweep/field.  Pure except for
/// topology resolution (a machine spec may name a JSON file).
bool parse_job_file(std::string_view text, JobPlan* out, std::string* error);

/// parse_job_file over the contents of @p path.
bool load_job_file(const std::string& path, JobPlan* out, std::string* error);

}  // namespace paxsim::serve
