// paxsim.hpp — the umbrella facade of the paxsim public API.
//
// One include gives a driver program everything the study surface exposes:
//
//   sim::      machine model (MachineParams, Machine, check/trace modes)
//   npb::      the NAS-derived kernel suite (Benchmark, ProblemClass)
//   perf::     PMU counters, the Figure-2 metric bundle, phase timelines
//   harness::  StudyConfig, RunOptions, the machine-reusing runners,
//              ExperimentEngine/ExperimentPlan, tables and JSON reports
//   model::    the analytical predictor (profiles + predictions)
//   check::    race detection / invariant audit reports
//   trace::    CPI stall-stack tracing and the Chrome-tracing exporter
//   report::   the one JSON writer every machine-readable report uses,
//              and the one reader every JSON input goes through (store
//              entries, job files, topology files)
//   serve::    the persistent sweep service — the on-disk content-addressed
//              result store, job files and the batch driver
//   lmb::      the LMbench-analog calibration probes
//   sched::    scheduler policies for the co-scheduling extension
//   tune::     model-driven autotuning (SearchSpace, tuner)
//   xomp::     the OpenMP-analog runtime, for authoring custom kernels
//
// In-repo drivers (bench/, examples/, the CLI) include only this header;
// the per-layer headers remain available for targeted use, but the facade
// is the supported spelling and what docs/ARCHITECTURE.md documents.
//
// Deliberately not included: cli/cli.hpp (the driver itself, not API) and
// internal simulator headers not exported by the layers below.
#pragma once

#include "check/checker.hpp"
#include "check/report.hpp"
#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/plot.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "lmb/lmbench.hpp"
#include "model/predict.hpp"
#include "model/profile.hpp"
#include "npb/array.hpp"
#include "npb/kernel.hpp"
#include "npb/rng.hpp"
#include "perf/counters.hpp"
#include "perf/metrics.hpp"
#include "perf/timeline.hpp"
#include "report/json.hpp"
#include "report/parse.hpp"
#include "sched/scheduler.hpp"
#include "serve/jobs.hpp"
#include "serve/serve.hpp"
#include "serve/store.hpp"
#include "sim/machine.hpp"
#include "sim/params.hpp"
#include "sim/topology.hpp"
#include "trace/chrome.hpp"
#include "tune/space.hpp"
#include "tune/tuner.hpp"
#include "trace/report.hpp"
#include "trace/ring.hpp"
#include "trace/stack.hpp"
#include "trace/tracer.hpp"
#include "xomp/team.hpp"
