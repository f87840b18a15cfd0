// Scenario registry — named workload mixes for campaign runs, built from
// a declarative scenario table.
//
// A ScenarioDef is one row of that table: name, description, app mix,
// content, cache size, sweep grid and (for streaming scenarios) a phase
// schedule — plain data, no registration code. compile_scenario() turns a
// row into a runnable ScenarioSpec: the application factory (fixed mix or
// phased), the experiment configuration, and the compiled per-phase specs
// a planner needs to plan each phase in isolation. The process-wide
// registry ships with the built-in table pre-registered and accepts user
// rows at runtime; every accessor is thread-safe, so campaign workers may
// resolve scenarios concurrently.
//
//   const auto& spec = core::scenarios().get("mpeg2-tiny");
//   core::Experiment exp(spec.factory, spec.experiment);
//
// Bad rows (empty name, empty mix, malformed phase schedule, duplicate
// registration) throw std::invalid_argument; unknown lookups throw
// std::out_of_range.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace cms::core {

/// One phase of a streaming scenario, on the scenario's period axis: the
/// half-open window [begin, end) sets how many periods (pictures for
/// jpeg-canny, frames for mpeg2) the phase's mix executes before the next
/// phase takes over. Windows must tile the axis: phase 0 begins at 0 and
/// each later phase begins exactly where its predecessor ends.
struct PhaseDef {
  std::string name;  // defaults to "phase<k>" when empty
  apps::AppMix mix = apps::AppMix::kNone;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};
using PhaseSchedule = std::vector<PhaseDef>;

/// One row of the declarative scenario table. Field defaults mean "keep
/// the ExperimentConfig default", so a row states only what it pins down.
struct ScenarioDef {
  std::string name;
  std::string description;
  /// App mix of a fixed-mix scenario. Ignored (may stay kNone) when
  /// `phases` is non-empty — the schedule's phases carry their own mixes.
  apps::AppMix mix = apps::AppMix::kNone;
  /// Content parameters. For streaming scenarios the per-phase iteration
  /// counts are derived from each phase's window length; the remaining
  /// fields (dimensions, quality, seed) are shared by every phase.
  apps::AppConfig content;
  std::uint32_t l2_bytes = 0;       // 0 = platform default
  std::vector<std::uint32_t> grid;  // empty = default profiling grid
  std::uint32_t profile_runs = 0;   // 0 = default (2)
  std::optional<ProfilerMode> profiler;
  std::optional<mem::Replacement> replacement;
  std::optional<double> curvature_eps;  // MCKP thinning tolerance
  /// Non-empty = streaming scenario whose app mix changes mid-run;
  /// validated by compile_scenario().
  PhaseSchedule phases;
};

/// A compiled phase of a streaming scenario: everything needed to profile
/// and plan this phase's mix in isolation. `trace_key` is keyed by mix +
/// content (not by scenario), so captures dedup across phases — and
/// across scenarios — that run the same apps on the same content.
struct ScenarioPhase {
  std::string name;
  apps::AppMix mix = apps::AppMix::kNone;
  apps::AppConfig content;  // window-derived iteration counts applied
  std::string trace_key;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  /// Factory for this phase's mix in isolation (task/buffer names are
  /// unprefixed; "p<k>/" + name maps onto the combined phased run).
  AppFactory factory;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  AppFactory factory;
  ExperimentConfig experiment;
  /// Compiled phase schedule; empty for classic fixed-mix scenarios. For
  /// streaming scenarios `factory` builds the combined phased app and
  /// `experiment.trace_key` fingerprints the whole schedule.
  std::vector<ScenarioPhase> phases;
};

/// One row of ScenarioRegistry::list().
struct ScenarioInfo {
  std::string name;
  std::string description;
  std::size_t phase_count = 0;  // 0 = classic fixed-mix scenario
};

/// Compile a table row into a runnable spec. Validates the phase
/// schedule: zero-length phases (end <= begin), overlapping or
/// non-contiguous windows, and phases referencing an empty app mix all
/// throw std::invalid_argument naming the offending phase index.
ScenarioSpec compile_scenario(const ScenarioDef& def);

class ScenarioRegistry {
 public:
  /// Register `spec`. Throws std::invalid_argument when the spec has no
  /// name, no factory, or the name is already taken.
  void add(ScenarioSpec spec);

  /// Register a table row (compile_scenario + add).
  void add(const ScenarioDef& def);

  bool has(const std::string& name) const;

  /// Throws std::out_of_range for unknown names (message lists the
  /// registered ones).
  ScenarioSpec get(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// Name + description + phase count of every registered scenario,
  /// sorted by name, gathered under ONE lock — listings (plan_server's
  /// `scenarios` command, --list-scenarios) use this instead of calling
  /// get() per name.
  std::vector<ScenarioInfo> list() const;

  /// Convenience: build the Experiment for a registered scenario. `jobs`
  /// overrides the spec's campaign worker count, `profiler` the spec's
  /// profiling mode (kFullSim vs kTraceReplay), a non-null `store`
  /// attaches a persistent trace store (captures are then looked up on
  /// disk before simulating — see opt/trace_store.hpp), and `kernel` the
  /// replay engine; omitted, the spec's own settings stand. Built-in
  /// scenarios carry a trace_key, so the store works out of the box.
  Experiment make_experiment(
      const std::string& name, std::optional<unsigned> jobs = std::nullopt,
      std::optional<ProfilerMode> profiler = std::nullopt,
      std::shared_ptr<opt::TraceStore> store = nullptr,
      std::optional<opt::ReplayKernel> kernel = std::nullopt) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, ScenarioSpec> specs_;
};

/// The built-in scenario table (what scenarios() pre-registers) — one
/// ScenarioDef per row, in registration order.
const std::vector<ScenarioDef>& builtin_scenario_defs();

/// The process-wide registry, with the built-in table registered on
/// first use:
///   jpeg-canny        2x JPEG + Canny co-run, evaluation content, 96 KB L2
///   mpeg2             MPEG2 decoder, evaluation content, 64 KB L2
///   jpeg-canny-tiny   same mix on tiny content (unit tests, smokes)
///   mpeg2-tiny        MPEG2 on tiny content
///   jpeg-canny-fine   jpeg-canny with a 2x denser profiling sweep grid
///   jpeg-canny-dense  tiny content on a dense 64-point grid, trace-replay
///                     by default (the sweep replay + the store make cheap)
///   mpeg2-tiny-rand   MPEG2 tiny with kRandom L2 replacement (pins the
///                     counter-based RNG replay path in benches/CI)
///   stream-tiny       3-phase streaming mix on tiny content, jpeg-canny
///                     -> mpeg2 -> jpeg-canny (replanning tests, benches)
///   stream-jpeg-mpeg2 evaluation-size 3-phase streaming scenario
ScenarioRegistry& scenarios();

}  // namespace cms::core
