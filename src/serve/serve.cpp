// paxsim/serve/serve.cpp
#include "serve/serve.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "harness/engine.hpp"
#include "npb/kernel.hpp"
#include "report/json.hpp"
#include "serve/store.hpp"

namespace paxsim::serve {
namespace {

/// One NDJSON progress line.  Self-describing (cell index + identity), so
/// consumers need no ordering guarantees beyond line atomicity.
void emit_progress(std::ostream& os, const JobCell& cell, std::size_t index,
                   std::size_t total, const char* outcome) {
  report::Json j(os);
  j.begin_document("serve_progress")
      .field("cell", static_cast<std::uint64_t>(index))
      .field("total", static_cast<std::uint64_t>(total))
      .field("payload", payload_name(cell.key.kind))
      .field("bench", npb::benchmark_name(cell.key.a));
  if (cell.key.kind == harness::CellKey::Kind::kPair) {
    j.field("bench_b", npb::benchmark_name(cell.key.b));
  }
  j.field("config", cell.cfg.name)
      .field("machine", cell.machine.empty() ? "default" : cell.machine)
      .field("seed", cell.key.seed)
      .field("outcome", outcome)
      .field("digest",
             harness::cell_digest(harness::cell_fingerprint(cell.key)));
  j.finish();
}

void emit_summary(std::ostream& os, const ServeSummary& s) {
  report::Json j(os);
  j.begin_document("serve_summary")
      .field("total", s.total)
      .field("store_hits", s.store_hits)
      .field("computed", s.computed)
      .field("skipped", s.skipped)
      .field("failures", s.failures);
  j.finish();
}

/// Computes one cell through the engine (which writes it through to the
/// attached store).  Throws what the engine throws (verification failure).
void compute_cell(harness::ExperimentEngine& engine, const JobCell& cell) {
  switch (cell.key.kind) {
    case harness::CellKey::Kind::kSingle:
      engine.single(cell.key.a, cell.cfg, cell.opt, cell.seed);
      break;
    case harness::CellKey::Kind::kPair:
      engine.pair(cell.key.a, cell.key.b, cell.cfg, cell.opt, cell.seed);
      break;
    case harness::CellKey::Kind::kPredict:
      engine.predict(cell.key.a, cell.cfg, cell.opt, cell.seed);
      break;
  }
}

}  // namespace

ServeSummary serve_cells(const JobPlan& plan, const std::string& store_dir,
                         const ServeOptions& opt, std::ostream* progress) {
  auto store = std::make_shared<ResultStore>(store_dir);
  harness::ExperimentEngine engine(opt.jobs);
  engine.set_store(store);

  ServeSummary s;
  s.total = plan.cells.size();

  // Pass 1 — probe: answered cells are hits, the rest queue for compute
  // (bounded by --max-cells; the overflow is reported, not silently
  // dropped, so an interrupted plan is visible in the stream).
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const JobCell& cell = plan.cells[i];
    if (store->contains(cell.key)) {
      ++s.store_hits;
      if (progress != nullptr) {
        emit_progress(*progress, cell, i, plan.cells.size(), "hit");
      }
    } else if (opt.max_cells != 0 && pending.size() >= opt.max_cells) {
      ++s.skipped;
      if (progress != nullptr) {
        emit_progress(*progress, cell, i, plan.cells.size(), "skipped");
      }
    } else {
      pending.push_back(i);
    }
  }

  // Pass 2 — compute the queue on the engine's worker pool.  Every cell is
  // persisted the moment it finishes (the engine's write-through), so an
  // interruption anywhere in this loop loses at most in-flight cells.
  std::mutex mu;  // progress stream + summary counters
  engine.for_each(pending.size(), [&](std::size_t q) {
    const std::size_t i = pending[q];
    const JobCell& cell = plan.cells[i];
    bool ok = true;
    try {
      compute_cell(engine, cell);
    } catch (const std::exception&) {
      ok = false;
    }
    std::lock_guard<std::mutex> lock(mu);
    const char* outcome = ok ? "computed" : "error";
    if (ok) {
      ++s.computed;
    } else {
      ++s.failures;
    }
    if (progress != nullptr) {
      emit_progress(*progress, cell, i, plan.cells.size(), outcome);
    }
  });
  return s;
}

int run_serve(const ServeOptions& opt, std::ostream& out, std::ostream& err) {
  JobPlan plan;
  std::string error;
  if (!load_job_file(opt.jobs_file, &plan, &error)) {
    err << "error: " << error << '\n';
    return 1;
  }
  const std::string store_dir =
      !opt.store_dir.empty() ? opt.store_dir : plan.store_dir;
  if (store_dir.empty()) {
    err << "error: no store directory (pass --store=DIR or set \"store\" in "
           "the job file)\n";
    return 1;
  }

  try {
    const ServeSummary s =
        serve_cells(plan, store_dir, opt, opt.progress ? &out : nullptr);
    emit_summary(out, s);
    return s.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace paxsim::serve
