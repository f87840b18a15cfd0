#include "svc/planning_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/serialize.hpp"

namespace cms::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<std::uint32_t> sorted_unique(std::vector<std::uint32_t> grid) {
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

/// `haystack` must be sorted unique.
bool covers(const std::vector<std::uint32_t>& haystack,
            const std::vector<std::uint32_t>& needles) {
  for (const std::uint32_t s : needles)
    if (!std::binary_search(haystack.begin(), haystack.end(), s)) return false;
  return true;
}

/// Fold `grid` into the sorted-unique `union_grid` in place.
void merge_into(std::vector<std::uint32_t>& union_grid,
                const std::vector<std::uint32_t>& grid) {
  for (const std::uint32_t s : grid) {
    const auto it =
        std::lower_bound(union_grid.begin(), union_grid.end(), s);
    if (it == union_grid.end() || *it != s) union_grid.insert(it, s);
  }
}

/// The sweep single-flight key: everything the union-grid MissProfile
/// depends on EXCEPT the grid itself. Capture digests already encode the
/// workload + platform + jitter seed; runs, the L2 size and the uniform-
/// plan buffer knobs shape the replay; curvature_eps and the solver are
/// deliberately absent (they only shape the per-request solve, which is
/// never shared).
std::string sweep_key(const std::string& scenario,
                      std::vector<std::string> digests, std::uint32_t runs,
                      const core::ExperimentConfig& cfg) {
  std::sort(digests.begin(), digests.end());
  serialize::ByteWriter w;
  w.str("sweepkey-v1");
  w.str(scenario);
  w.varint(digests.size());
  for (const std::string& d : digests) w.str(d);
  w.varint(runs);
  w.varint(cfg.platform.hier.l2.size_bytes);
  w.varint(cfg.planner.frame_buffer_sets);
  w.varint(cfg.planner.segment_sets);
  w.varint(cfg.planner.max_fifo_sets);
  return serialize::fnv1a128_hex(w.bytes().data(), w.size());
}

/// Copy exactly the `grid` columns out of a union-grid profile. set_point
/// installs each ProfilePoint bit-exactly, so the result is
/// indistinguishable from a sweep that only ever replayed `grid` (each
/// point's accumulation never saw the other sizes — see the coalescing
/// contract in the header).
opt::MissProfile slice_profile(const opt::MissProfile& full,
                               const std::vector<std::uint32_t>& grid) {
  opt::MissProfile out;
  for (const std::string& name : full.task_names()) {
    const auto& curve = full.curve(name);
    for (const std::uint32_t sets : grid) out.set_point(name, sets, curve.at(sets));
  }
  return out;
}

}  // namespace

struct PlanningService::SweepOutcome {
  opt::MissProfile profile;         // the union-grid profile
  std::vector<std::uint32_t> grid;  // union grid actually replayed (sorted)
  std::string replay_kernel;        // resolved kernel name
  double capture_ms = 0.0;          // leader's capture phase
  double profile_ms = 0.0;          // leader's replay phase
};

struct PlanningService::SweepState {
  // grid / sealed / merged / sum_points / last_join are guarded by
  // sweeps_mu_.
  std::vector<std::uint32_t> grid;  // union under construction, sorted unique
  bool sealed = false;
  std::uint64_t sum_points = 0;  // Σ requested |grid| across merged requests
  Clock::time_point opened = Clock::now();
  /// Most recent open-sweep join (= opened until someone joins); the
  /// adaptive merge window seals early once this goes quiet.
  Clock::time_point last_join = Clock::now();
  std::promise<std::shared_ptr<const SweepOutcome>> promise;
  std::shared_future<std::shared_ptr<const SweepOutcome>> future;
};

const char* to_string(CaptureSource source) {
  switch (source) {
    case CaptureSource::kStoreHit: return "hit";
    case CaptureSource::kCaptured: return "captured";
    case CaptureSource::kCoalesced: return "coalesced";
    case CaptureSource::kDeferred: return "deferred";
    case CaptureSource::kPlanCached: return "plan-cache";
  }
  return "?";
}

const char* to_string(PlanSource source) {
  switch (source) {
    case PlanSource::kComputed: return "computed";
    case PlanSource::kCache: return "cache";
  }
  return "?";
}

const char* to_string(SweepRole role) {
  switch (role) {
    case SweepRole::kLeader: return "leader";
    case SweepRole::kCoalesced: return "coalesced";
    case SweepRole::kCache: return "cache";
  }
  return "?";
}

std::uint64_t PlanResponse::captured() const {
  return static_cast<std::uint64_t>(
      std::count_if(captures.begin(), captures.end(), [](const auto& r) {
        return r.source == CaptureSource::kCaptured;
      }));
}

std::uint64_t PlanResponse::store_hits() const {
  return static_cast<std::uint64_t>(
      std::count_if(captures.begin(), captures.end(), [](const auto& r) {
        return r.source == CaptureSource::kStoreHit;
      }));
}

std::uint64_t PlanResponse::deferred() const {
  return static_cast<std::uint64_t>(
      std::count_if(captures.begin(), captures.end(), [](const auto& r) {
        return r.source == CaptureSource::kDeferred;
      }));
}

PlanningService::PlanningService(PlanningServiceConfig cfg)
    : cfg_(std::move(cfg)), store_(cfg_.store) {
  if (store_ == nullptr)
    throw std::invalid_argument(
        "PlanningService needs a TraceStore: without one captures could "
        "neither warm-start requests nor reach single-flight followers");
}

core::Experiment PlanningService::make_experiment(
    const PlanRequest& req) const {
  core::ScenarioSpec spec = core::scenarios().get(req.scenario);
  core::ExperimentConfig cfg = spec.experiment;
  if (cfg.trace_key.empty())
    throw std::invalid_argument(
        "scenario '" + req.scenario +
        "' has no trace_key; the planning service needs content-addressed "
        "captures");
  return build_experiment(req, std::move(spec.factory), std::move(cfg));
}

core::Experiment PlanningService::build_experiment(
    const PlanRequest& req, core::AppFactory factory,
    core::ExperimentConfig cfg) const {
  if (!req.grid.empty()) {
    for (const std::uint32_t sets : req.grid)
      if (sets == 0)
        throw std::invalid_argument("plan request grid contains size 0");
    // A duplicated size would Welford-accumulate the same (task, size)
    // point twice — the resulting statistics depend on how often the size
    // appears in the sweep, which both inflates run counts and breaks the
    // union-sweep slicing bit-identity contract. There is no legitimate
    // use for it, so reject it as a request error.
    std::vector<std::uint32_t> dedup = req.grid;
    std::sort(dedup.begin(), dedup.end());
    if (std::adjacent_find(dedup.begin(), dedup.end()) != dedup.end())
      throw std::invalid_argument(
          "plan request grid contains duplicate sizes");
    cfg.profile_grid = req.grid;
  }
  if (req.runs) {
    if (*req.runs > kMaxPlanRuns)
      throw std::invalid_argument(
          "plan request runs " + std::to_string(*req.runs) + " exceeds " +
          std::to_string(kMaxPlanRuns));
    cfg.profile_runs = std::max(1u, *req.runs);
  }
  if (req.l2_size_bytes) {
    // An L2 override smaller than one set would crash the cache model
    // (modulo by zero sets) — reject it as a request error instead.
    const mem::CacheConfig& l2 = cfg.platform.hier.l2;
    const std::uint32_t set_bytes = l2.line_bytes * l2.ways;
    if (*req.l2_size_bytes < set_bytes)
      throw std::invalid_argument(
          "plan request l2_size_bytes " + std::to_string(*req.l2_size_bytes) +
          " is smaller than one set (" + std::to_string(set_bytes) +
          " bytes)");
    cfg.platform.hier.l2.size_bytes = *req.l2_size_bytes;
  }
  if (req.curvature_eps) {
    // NaN/inf would poison the plan-cache key and compare unpredictably
    // in the curvature thinning; negative values are the documented
    // auto-tune sentinel and pass through.
    if (!std::isfinite(*req.curvature_eps))
      throw std::invalid_argument(
          "plan request curvature_eps must be finite");
    cfg.planner.curvature_eps = *req.curvature_eps;
  }
  // The service path: captures come from (or land in) the shared store,
  // the sweep is replayed from them. Trace replay is bit-identical to
  // full simulation (ARCHITECTURE.md), so responses match direct
  // Experiment plans exactly.
  cfg.trace_store = store_;
  cfg.profiler = core::ProfilerMode::kTraceReplay;
  cfg.jobs = cfg_.jobs;
  cfg.replay_kernel = cfg_.replay_kernel;
  return core::Experiment(std::move(factory), std::move(cfg));
}

CaptureSource PlanningService::ensure_capture(const core::Experiment& exp,
                                              std::uint32_t run,
                                              const std::string& digest) {
  // Fast path: resident already. The caller holds a pin, so the entry
  // cannot be evicted between this probe and the replay that consumes it.
  if (store_->contains(digest)) {
    store_hits_.fetch_add(1, std::memory_order_relaxed);
    return CaptureSource::kStoreHit;
  }

  // READ-ONLY STORE CONTRACT: an ro store cannot persist a leader's
  // capture, so single-flight could never hand the result to followers
  // (or to this request's own profile() pass) — capturing here would just
  // run the simulation twice. Let Experiment::profile() capture in
  // memory, batched on its Campaign, and say so honestly: the source is
  // kDeferred (NOT kCaptured — nothing has been simulated yet), the cost
  // lands in profile_ms rather than capture_ms, and the capture_started
  // hook does not fire because no store-persisted capture ever starts.
  if (store_->read_only()) {
    deferred_.fetch_add(1, std::memory_order_relaxed);
    return CaptureSource::kDeferred;
  }

  std::promise<void> lead;
  std::shared_future<void> follow;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = inflight_.find(digest);
    if (it != inflight_.end())
      follow = it->second;
    else
      inflight_.emplace(digest, lead.get_future().share());
  }
  if (follow.valid()) {
    follow.get();  // rethrows the leader's failure as this request's
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    return CaptureSource::kCoalesced;
  }

  // We are the leader; whatever happens, resolve the in-flight entry so
  // followers never block forever.
  try {
    // Double-check under single-flight: a previous leader may have saved
    // the entry between our contains() probe and our registration (it
    // erases its in-flight slot only AFTER saving), so finding it now is
    // a hit — re-capturing would break exactly-once.
    if (store_->contains(digest)) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        inflight_.erase(digest);
      }
      lead.set_value();
      store_hits_.fetch_add(1, std::memory_order_relaxed);
      return CaptureSource::kStoreHit;
    }
    if (cfg_.capture_started) cfg_.capture_started(digest);
    bool usable = false;
    const opt::CaptureRun capture = exp.capture_single(run, &usable);
    if (!usable)
      throw std::runtime_error("capture run " + std::to_string(run) +
                               " of scenario unusable (deadlock or failed "
                               "verification); refusing to plan from it");
    store_->save(digest, capture);
    {
      std::lock_guard<std::mutex> lk(mu_);
      inflight_.erase(digest);
    }
    lead.set_value();
    captured_.fetch_add(1, std::memory_order_relaxed);
    return CaptureSource::kCaptured;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      inflight_.erase(digest);
    }
    lead.set_exception(std::current_exception());
    throw;
  }
}

PlanResponse PlanningService::plan(const PlanRequest& req) {
  PlanResponse resp;
  resp.scenario = req.scenario;
  const auto t0 = Clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  try {
    if (req.phases) {
      plan_phases(req, resp);
    } else {
      const core::Experiment exp = make_experiment(req);
      run_request(exp, req.scenario, resp);
    }
  } catch (const std::exception& e) {
    resp.error = e.what();
    resp.ok = false;
  }
  resp.total_ms = ms_since(t0);
  return resp;
}

void PlanningService::plan_phases(const PlanRequest& req, PlanResponse& resp) {
  core::ScenarioSpec spec = core::scenarios().get(req.scenario);
  if (spec.phases.empty())
    throw std::invalid_argument(
        "scenario '" + req.scenario +
        "' has no phase schedule; phases=all needs a streaming scenario");
  resp.phases.reserve(spec.phases.size());
  for (const core::ScenarioPhase& ph : spec.phases) {
    PlanResponse pr;
    pr.scenario = req.scenario;
    pr.phase = ph.name;
    const auto tp = Clock::now();
    try {
      // The phase plans its mix IN ISOLATION — the paper's compositional
      // step — under the scenario's platform/planner settings and the
      // request's overrides. Its trace key is mix+content scoped, so a
      // repeated phase (and any other scenario running the same apps on
      // the same content) reuses the captures and hits the plan cache.
      core::ExperimentConfig cfg = spec.experiment;
      cfg.trace_key = ph.trace_key;
      const core::Experiment exp =
          build_experiment(req, ph.factory, std::move(cfg));
      run_request(exp, req.scenario, pr);
    } catch (const std::exception& e) {
      pr.error = e.what();
      pr.ok = false;
    }
    pr.total_ms = ms_since(tp);
    resp.phases.push_back(std::move(pr));
  }
  resp.ok = true;
  for (const PlanResponse& pr : resp.phases)
    if (!pr.ok) {
      resp.ok = false;
      resp.error = "phase '" + pr.phase + "': " + pr.error;
      break;
    }
}

void PlanningService::run_request(const core::Experiment& exp,
                                  const std::string& scenario,
                                  PlanResponse& resp) {
  const std::uint32_t runs = std::max(1u, exp.config().profile_runs);

  resp.captures.reserve(runs);
  for (std::uint32_t r = 0; r < runs; ++r) {
    PlanResponse::RunProvenance prov;
    prov.jitter = r;  // profile_jobs uses the run index as jitter seed
    prov.digest = exp.trace_digest(r);
    resp.captures.push_back(std::move(prov));
  }

  // Memoized plan lookup FIRST: the capture digests + resolved sweep +
  // planner config address the whole response (opt::PlanKey), so a hit
  // needs no pin, no capture, no replay and no MCKP solve.
  std::string plan_key;
  std::shared_ptr<const opt::PlanCacheEntry> memo;
  if (cfg_.plan_cache != nullptr) {
    const auto tk = Clock::now();
    opt::PlanKey key;
    key.capture_digests.reserve(runs);
    for (const auto& prov : resp.captures)
      key.capture_digests.push_back(prov.digest);
    key.grid = exp.config().profile_grid;
    key.runs = runs;
    key.l2_size_bytes = exp.config().platform.hier.l2.size_bytes;
    key.planner = exp.config().planner;
    plan_key = key.digest();
    memo = cfg_.plan_cache->get(plan_key);
    resp.plan_cache_ms = ms_since(tk);
  }
  if (memo != nullptr) {
    for (auto& prov : resp.captures)
      prov.source = CaptureSource::kPlanCached;
    resp.assignment = memo->plan;
    resp.tasks.reserve(memo->predictions.size());
    for (const opt::PlanPrediction& p : memo->predictions)
      resp.tasks.push_back(PlanResponse::TaskPrediction{
          p.name, p.sets, p.misses, p.cycles});
    resp.plan_source = PlanSource::kCache;
    resp.sweep = SweepRole::kCache;
    // No replay executed — the cached bits are kernel-independent.
    resp.replay_kernel = "cache";
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    resp.ok = true;
    return;
  }

  // ---- SWEEP COALESCING (see the header's contract) ----
  // Join a concurrent sweep over the same captures, or open one. A grid
  // with duplicate sizes (only reachable via a scenario DEFAULT grid —
  // make_experiment rejects explicit duplicates) is not sliceable, so
  // it bypasses coalescing and keeps the legacy double-accumulation
  // semantics verbatim.
  const std::vector<std::uint32_t>& my_grid = exp.config().profile_grid;
  const std::vector<std::uint32_t> my_sorted = sorted_unique(my_grid);
  const bool coalescable = my_sorted.size() == my_grid.size();
  std::shared_ptr<SweepState> sweep;
  bool follower = false;
  std::string skey;
  if (coalescable) {
    std::vector<std::string> digests;
    digests.reserve(resp.captures.size());
    for (const auto& prov : resp.captures) digests.push_back(prov.digest);
    skey = sweep_key(scenario, std::move(digests), runs, exp.config());
    std::lock_guard<std::mutex> lk(sweeps_mu_);
    const auto it = sweeps_.find(skey);
    if (it != sweeps_.end()) {
      SweepState& st = *it->second;
      // An OPEN sweep absorbs any grid; a SEALED one can still serve a
      // late arrival whose sizes it already covers. A sealed sweep that
      // does NOT cover us is simply stale — we open a fresh one over it
      // (its leader erases by identity, never clobbering ours).
      if (!st.sealed) {
        merge_into(st.grid, my_sorted);
        st.sum_points += my_sorted.size();
        st.last_join = Clock::now();  // feeds the adaptive merge window
        sweep = it->second;
        follower = true;
      } else if (covers(st.grid, my_sorted)) {
        st.sum_points += my_sorted.size();
        sweep = it->second;
        follower = true;
      }
    }
    if (sweep == nullptr) {
      sweep = std::make_shared<SweepState>();
      sweep->grid = my_sorted;
      sweep->sum_points = my_sorted.size();
      sweep->future = sweep->promise.get_future().share();
      sweeps_[skey] = sweep;
    }
    if (follower)  // counted at JOIN time: sealing hooks can watch it
      sweeps_coalesced_.fetch_add(1, std::memory_order_relaxed);
  }

  opt::MissProfile prof;
  if (follower) {
    // The leader replays our sizes for us. No pin, no store probe, no
    // replay: block on the shared outcome (a leader failure rethrows
    // here and becomes this request's error response), then slice our
    // own columns out of the union profile — bit-identical to having
    // run the sweep alone.
    const auto tw = Clock::now();
    const std::shared_ptr<const SweepOutcome> out = sweep->future.get();
    resp.profile_ms = ms_since(tw);  // wait time; capture_ms stays 0
    for (auto& prov : resp.captures)
      prov.source = CaptureSource::kCoalesced;
    resp.sweep = SweepRole::kCoalesced;
    resp.union_points = static_cast<std::uint32_t>(out->grid.size());
    resp.replay_kernel = out->replay_kernel;
    prof = slice_profile(out->profile, my_sorted);
  } else {
    // Pin every digest this request will replay BEFORE ensuring
    // captures: from here to the end of the request, capacity eviction
    // cannot touch them (pins release when `pins` dies). Sweep
    // followers of THIS request never pin — their whole store
    // interaction is inherited from us, and the union profile they
    // slice lives in memory, immune to eviction.
    const auto tc = Clock::now();
    std::vector<opt::TraceStore::Pin> pins;
    pins.reserve(runs);
    // Missing digests are ensured one at a time: with the default 1-2
    // jitter runs a cold request pays at most two sequential simulations
    // ONCE per store lifetime, and per-digest single-flight stays simple.
    // (Batching pending captures onto a Campaign, as capture_runs_for
    // does, is the upgrade path if workloads with many runs appear.)
    // EVERYTHING between sweep registration and publication runs inside
    // this try: any failure must reach the followers (set_exception) or
    // they would block forever.
    try {
      for (const auto& prov : resp.captures)
        pins.push_back(store_->pin(prov.digest));
      for (auto& prov : resp.captures)
        prov.source = ensure_capture(
            exp, static_cast<std::uint32_t>(prov.jitter), prov.digest);
      resp.capture_ms = ms_since(tc);

      if (sweep != nullptr) {
        // Merge window: hold the sweep open so a concurrent burst folds
        // completely — but ADAPT to the arrival rate. Burst peers may
        // still sit in a front end's admission queue when the leader
        // gets here, so some hold is always paid; once no one has
        // joined for a quiet gap, though, the burst is over and holding
        // the full window would be pure latency (the classic failure:
        // a lone request paying the whole window for nobody). The gap
        // is window/4 clamped to [1, 50] ms: joiners keep resetting it,
        // so a steady trickle still merges until the full window —
        // the worst-case hold — elapses.
        if (cfg_.coalesce_window_ms > 0.0) {
          const double gap =
              std::clamp(cfg_.coalesce_window_ms / 4.0, 1.0, 50.0);
          bool early = false;
          for (;;) {
            const double left =
                cfg_.coalesce_window_ms - ms_since(sweep->opened);
            if (left <= 0.0) break;
            double quiet;
            {
              std::lock_guard<std::mutex> lk(sweeps_mu_);
              quiet = ms_since(sweep->last_join);
            }
            if (quiet >= gap) {
              early = true;
              break;
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(std::clamp(
                    std::min(left, gap - quiet), 0.1, 5.0)));
          }
          if (early)
            sweeps_sealed_early_.fetch_add(1, std::memory_order_relaxed);
        }
        if (cfg_.sweep_sealing) cfg_.sweep_sealing();
      }
      std::vector<std::uint32_t> union_grid = my_sorted;
      if (sweep != nullptr) {
        std::lock_guard<std::mutex> lk(sweeps_mu_);
        sweep->sealed = true;
        union_grid = sweep->grid;
      }

      // Every capture is now resident and pinned: the profiling sweep
      // is a pure store-hit replay (over a read-only store it also runs
      // any deferred captures — see ensure_capture). Replay the UNION
      // grid once; the fused multi-size kernel makes the extra columns
      // nearly free.
      resp.replay_kernel = opt::to_string(exp.config().replay_kernel);
      sweeps_started_.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.sweep_started) cfg_.sweep_started(scenario, union_grid);
      const auto tp = Clock::now();
      auto out = std::make_shared<SweepOutcome>();
      if (sweep == nullptr || union_grid == my_grid) {
        out->profile = exp.profile();
      } else {
        core::ExperimentConfig ucfg = exp.config();
        ucfg.profile_grid = union_grid;
        const core::Experiment uexp(exp.factory(), std::move(ucfg));
        out->profile = uexp.profile();
      }
      resp.profile_ms = ms_since(tp);
      resp.sweep = SweepRole::kLeader;
      resp.union_points = static_cast<std::uint32_t>(
          sweep == nullptr ? my_grid.size() : union_grid.size());
      // The non-coalescable path keeps the full profile verbatim
      // (duplicate sizes and all); a coalescing leader slices its own
      // columns exactly like its followers do.
      prof = sweep == nullptr ? std::move(out->profile)
                              : slice_profile(out->profile, my_sorted);

      if (sweep != nullptr) {
        out->grid = std::move(union_grid);
        out->replay_kernel = resp.replay_kernel;
        out->capture_ms = resp.capture_ms;
        out->profile_ms = resp.profile_ms;
        // Retire the sweep BEFORE publishing: once the table entry is
        // gone no one can join anymore, so sum_points read in the same
        // critical section is final and the saved-points accounting is
        // exact. Erase by identity — a stale sealed entry may have been
        // replaced by a newer leader's.
        std::uint64_t saved = 0;
        {
          std::lock_guard<std::mutex> lk(sweeps_mu_);
          saved = sweep->sum_points - out->grid.size();
          const auto sit = sweeps_.find(skey);
          if (sit != sweeps_.end() && sit->second == sweep)
            sweeps_.erase(sit);
        }
        union_points_saved_.fetch_add(saved, std::memory_order_relaxed);
        sweep->promise.set_value(std::move(out));
      }
    } catch (...) {
      if (sweep != nullptr) {
        {
          std::lock_guard<std::mutex> lk(sweeps_mu_);
          const auto sit = sweeps_.find(skey);
          if (sit != sweeps_.end() && sit->second == sweep)
            sweeps_.erase(sit);
        }
        sweep->promise.set_exception(std::current_exception());
      }
      throw;
    }
  }

  const auto tl = Clock::now();
  resp.assignment = exp.plan(prof);
  resp.plan_ms = ms_since(tl);

  for (const opt::PlanEntry& e : resp.assignment.entries) {
    if (!e.is_task) continue;
    PlanResponse::TaskPrediction t;
    t.name = e.name;
    t.sets = e.sets;
    t.predicted_misses = e.expected_misses;
    t.predicted_cycles = prof.active_cycles(e.name, e.sets);
    resp.tasks.push_back(std::move(t));
  }

  if (cfg_.plan_cache != nullptr) {
    opt::PlanCacheEntry entry;
    entry.profile = prof;
    entry.plan = resp.assignment;
    entry.predictions.reserve(resp.tasks.size());
    for (const auto& t : resp.tasks)
      entry.predictions.push_back(opt::PlanPrediction{
          t.name, t.sets, t.predicted_misses, t.predicted_cycles});
    const double eps = exp.config().planner.curvature_eps;
    entry.curvature_eps = eps < 0.0 ? opt::auto_curvature_eps(prof) : eps;
    cfg_.plan_cache->put(plan_key, std::move(entry));
  }
  resp.ok = true;
}

opt::TraceStore::GcResult PlanningService::gc() {
  opt::TraceStore::GcResult out = store_->gc();
  if (cfg_.plan_cache != nullptr) {
    const opt::TraceStore::GcResult pc = cfg_.plan_cache->gc();
    out.evicted_entries += pc.evicted_entries;
    out.evicted_bytes += pc.evicted_bytes;
  }
  return out;
}

ServiceStats PlanningService::service_stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.captured = captured_.load(std::memory_order_relaxed);
  s.deferred = deferred_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  s.sweeps_started = sweeps_started_.load(std::memory_order_relaxed);
  s.sweeps_coalesced = sweeps_coalesced_.load(std::memory_order_relaxed);
  s.union_points_saved = union_points_saved_.load(std::memory_order_relaxed);
  s.sweeps_sealed_early =
      sweeps_sealed_early_.load(std::memory_order_relaxed);
  return s;
}

opt::PlanCache::Stats PlanningService::plan_cache_stats() const {
  return cfg_.plan_cache != nullptr ? cfg_.plan_cache->stats()
                                    : opt::PlanCache::Stats{};
}

std::shared_ptr<opt::TraceStore> open_service_store(
    std::shared_ptr<opt::StoreBackend> backend, core::TraceMode mode,
    opt::TraceStore::Capacity capacity) {
  if (backend == nullptr || mode == core::TraceMode::kOff) return nullptr;
  return std::make_shared<opt::TraceStore>(
      std::move(backend), mode == core::TraceMode::kReadOnly, capacity);
}

std::shared_ptr<opt::PlanCache> open_plan_cache(
    core::PlanCacheMode mode, std::shared_ptr<opt::StoreBackend> backend,
    core::TraceMode trace_mode, opt::TraceStore::Capacity budget) {
  if (mode == core::PlanCacheMode::kOff) return nullptr;
  opt::PlanCache::Config cfg;
  // Tier 2 rides the trace store's backend — plans and captures share one
  // (possibly tiered) store; without one it degrades to the in-process
  // memo.
  if (mode == core::PlanCacheMode::kDisk && backend != nullptr &&
      trace_mode != core::TraceMode::kOff) {
    cfg.backend = std::move(backend);
    cfg.read_only = trace_mode == core::TraceMode::kReadOnly;
  }
  cfg.memory = budget;
  cfg.disk = budget;
  return std::make_shared<opt::PlanCache>(std::move(cfg));
}

}  // namespace cms::svc
