// paxsim/serve/serve.cpp
#include "serve/serve.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
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

void emit_summary(std::ostream& os, const ServeSummary& s, int procs,
                  int workers_failed) {
  report::Json j(os);
  j.begin_document("serve_summary")
      .field("total", s.total)
      .field("store_hits", s.store_hits)
      .field("computed", s.computed)
      .field("skipped", s.skipped)
      .field("failures", s.failures)
      .field("procs", procs)
      .field("workers_failed", workers_failed);
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

/// The per-process workhorse: this process's round-robin shard of the plan
/// against one store handle.
ServeSummary run_shard(const JobPlan& plan, const std::string& store_dir,
                       const ServeOptions& opt, int shard, int nshards,
                       std::ostream* progress) {
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
    if (nshards > 1 && static_cast<int>(i % static_cast<std::size_t>(
                           nshards)) != shard) {
      continue;
    }
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
  if (nshards > 1) {
    // This shard's universe is its own cells only.
    s.total = s.store_hits + s.skipped + pending.size();
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

}  // namespace

ServeSummary serve_cells(const JobPlan& plan, const std::string& store_dir,
                         const ServeOptions& opt, std::ostream* progress) {
  return run_shard(plan, store_dir, opt, /*shard=*/0, /*nshards=*/1,
                   progress);
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
    if (opt.procs <= 1) {
      const ServeSummary s = serve_cells(plan, store_dir, opt,
                                         opt.progress ? &out : nullptr);
      emit_summary(out, s, 1, 0);
      return s.failures == 0 ? 0 : 1;
    }

    // Multi-process sharding.  The parent probes the store before and
    // after, so the summary is exact without any worker IPC: pre-answered
    // cells are hits, newly present ones were computed, absent ones were
    // skipped (or failed — the worker exit codes say which happened).
    ServeSummary s;
    s.total = plan.cells.size();
    std::vector<bool> pre(plan.cells.size(), false);
    {
      ResultStore probe(store_dir);
      for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        pre[i] = probe.contains(plan.cells[i].key);
        if (pre[i]) {
          ++s.store_hits;
          if (opt.progress) {
            emit_progress(out, plan.cells[i], i, plan.cells.size(), "hit");
          }
        }
      }
    }
    out.flush();
    std::vector<pid_t> workers;
    for (int w = 0; w < opt.procs; ++w) {
      const pid_t pid = fork();
      if (pid < 0) {
        err << "error: fork failed\n";
        for (const pid_t running : workers) {
          int status = 0;
          waitpid(running, &status, 0);
        }
        return 1;
      }
      if (pid == 0) {
        // Worker: silent (the parent owns the progress stream), its shard
        // only, coordination purely through the store's atomic writes.
        const ServeSummary ws =
            run_shard(plan, store_dir, opt, w, opt.procs, nullptr);
        _exit(ws.failures == 0 ? 0 : 1);
      }
      workers.push_back(pid);
    }
    int workers_failed = 0;
    for (const pid_t pid : workers) {
      int status = 0;
      waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++workers_failed;
    }
    ResultStore probe(store_dir);
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      if (pre[i]) continue;
      const bool now = probe.contains(plan.cells[i].key);
      if (now) {
        ++s.computed;
      } else {
        ++s.skipped;
      }
      if (opt.progress) {
        emit_progress(out, plan.cells[i], i, plan.cells.size(),
                      now ? "computed" : "skipped");
      }
    }
    emit_summary(out, s, opt.procs, workers_failed);
    return workers_failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace paxsim::serve
