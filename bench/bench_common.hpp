// Shared configuration of the benchmark harnesses that regenerate the
// paper's tables and figures.
//
// Scaling note (see DESIGN.md and EXPERIMENTS.md): the paper evaluates on
// a 512 KB L2 with production-sized content (their MPEG2 footprint sits
// between 512 KB and 1 MB — doubling the shared L2 to 1 MB nearly matched
// the partitioned 512 KB). We use QCIF-class synthetic content, so the L2
// is scaled to keep the footprint/capacity ratio in the same regime:
//  * application 1 (2x JPEG + Canny): QCIF content, 96 KB 4-way L2;
//  * application 2 (MPEG2): 128x96 content, 10 frames, 64 KB 4-way L2.
// Trends and ratios — who wins, by what factor, where the crossovers are —
// are the reproduction targets, not absolute miss counts.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "opt/compositionality.hpp"
#include "opt/trace_store.hpp"

namespace cms::bench {

/// The command line of a paper bench: --jobs, --profiler and the store
/// group (core/cli.hpp). Results are bit-identical for any --jobs value,
/// either --profiler mode (trace replay reproduces the full-simulation
/// sweep exactly) and with or without a store (store hits load the same
/// captures a live run would record), so the defaults are serial full
/// simulation for undisturbed timing and the flags speed things up on
/// demand.
struct BenchArgs {
  unsigned jobs = 1;
  core::ProfilerMode profiler = core::ProfilerMode::kFullSim;
  std::shared_ptr<opt::TraceStore> store;  // null without --trace-dir
};

/// Parse a paper bench's command line, plus the bench's own `extra`
/// rows; exits 2 on a usage error.
inline BenchArgs parse_bench_args(int argc, char** argv,
                                  core::FlagTable extra = {}) {
  core::CampaignFlags campaign;
  core::StoreFlags store;
  core::parse_flags_or_exit(argc, argv,
                            {campaign.table(), store.table(), extra});
  return {campaign.jobs, campaign.profiler, store.open_trace_store()};
}

inline apps::AppConfig app1_content() {
  apps::AppConfig cfg;  // QCIF defaults: 176x144 + 128x96 + 176x144
  cfg.jpeg_pictures = 4;
  cfg.canny_frames = 4;
  return cfg;
}

inline apps::AppConfig app2_content() {
  apps::AppConfig cfg;
  cfg.m2v_width = 128;
  cfg.m2v_height = 96;
  cfg.m2v_frames = 10;
  return cfg;
}

inline core::AppFactory app1_factory() {
  return [] { return apps::make_jpeg_canny_app(app1_content()); };
}

inline core::AppFactory app2_factory() {
  return [] { return apps::make_m2v_app(app2_content()); };
}

/// The benches' experiment over `content` on an `l2_bytes` L2. The
/// trace_key is always set, so attaching a store later also works.
inline core::ExperimentConfig bench_experiment(std::uint32_t l2_bytes,
                                               const char* label,
                                               const apps::AppConfig& content,
                                               const BenchArgs& args) {
  core::ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = l2_bytes;
  cfg.profile_runs = 2;
  cfg.jobs = args.jobs;
  cfg.profiler = args.profiler;
  cfg.trace_store = args.store;
  cfg.trace_key = core::app_trace_key(label, content);
  return cfg;
}

inline core::ExperimentConfig app1_experiment(const BenchArgs& args = {}) {
  return bench_experiment(96 * 1024, "bench-app1", app1_content(), args);
}

inline core::ExperimentConfig app2_experiment(const BenchArgs& args = {}) {
  return bench_experiment(64 * 1024, "bench-app2", app2_content(), args);
}

inline void print_run_summary(const char* label, const core::RunOutput& out) {
  std::printf(
      "%-22s L2 misses %8llu / %8llu accesses (%.2f%%)  mean CPI %.3f  "
      "makespan %llu  %s%s\n",
      label, static_cast<unsigned long long>(out.results.l2_misses),
      static_cast<unsigned long long>(out.results.l2_accesses),
      100.0 * out.results.l2_miss_rate(), out.results.mean_cpi(),
      static_cast<unsigned long long>(out.results.makespan),
      out.verified ? "[verified]" : "[VERIFY FAILED]",
      out.results.deadlocked ? " [DEADLOCK]" : "");
}

/// Exit-code gate of the paper's claims in the figure benches: each
/// failed check prints one "paper gate FAILED" line, and main returns
/// exit_code(), so a regression fails the run instead of only printing.
class PaperGate {
 public:
  void check(bool ok, const char* app, const std::string& what) {
    if (ok) return;
    ++failures_;
    std::printf("paper gate FAILED [%s]: %s\n", app, what.c_str());
  }
  /// A run backs a claim only if its output verified and it finished.
  void run(const char* app, const char* label, const core::RunOutput& out) {
    check(out.verified && !out.results.deadlocked, app,
          std::string(label) + " run unverified or deadlocked");
  }
  /// The paper's compositionality bound: per-task |expected - simulated|
  /// within 2% of the total simulated misses.
  void compositional(const char* app, const opt::CompositionalityReport& rep) {
    check(rep.within(0.02), app,
          "per-task |expected - simulated| above 2% of total misses");
  }
  int exit_code() const {
    std::printf("paper gates: %s\n", failures_ == 0 ? "PASS" : "FAIL");
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

}  // namespace cms::bench
