#include "core/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "opt/trace_store.hpp"

namespace cms::core {

namespace {

void hash_cache_config(serialize::ByteWriter& w, const mem::CacheConfig& c) {
  w.varint(c.size_bytes);
  w.varint(c.line_bytes);
  w.varint(c.ways);
  w.u8(static_cast<std::uint8_t>(c.replacement));
  w.u8(static_cast<std::uint8_t>(c.write_policy));
}

void hash_region(serialize::ByteWriter& w, const sim::Region& r) {
  w.varint(r.base);
  w.varint(r.size);
}

/// Fold one instrumented run's recording + results into a CaptureRun.
opt::CaptureRun assemble_capture(opt::TraceRecorder& rec,
                                 const core::RunOutput& out) {
  opt::CaptureRun capture;
  capture.trace = rec.take();
  // The rt data/bss buffer clients of the simulated app: replay excludes
  // their demand misses from per-task counts just as the engine excludes
  // switch work from task active cycles.
  capture.scheduler_clients = out.scheduler_clients;
  capture.tasks.reserve(out.results.tasks.size());
  for (const auto& t : out.results.tasks)
    capture.tasks.push_back(opt::CaptureTaskStats{
        t.id, t.name, t.instructions, t.compute_cycles, t.mem_cycles});
  return capture;
}

}  // namespace

std::vector<std::pair<TaskId, std::string>> Experiment::tasks() const {
  const apps::Application app = factory_();
  std::vector<std::pair<TaskId, std::string>> out;
  for (const auto& p : app.net->processes()) out.emplace_back(p->id(), p->name());
  return out;
}

std::vector<kpn::SharedBufferInfo> Experiment::buffers() const {
  const apps::Application app = factory_();
  return app.net->buffers();
}

SimJob Experiment::make_job(const sim::PlatformConfig& pc,
                            std::shared_ptr<const opt::PartitionPlan> plan,
                            std::uint64_t jitter, std::string label) const {
  SimJob job;
  job.factory = factory_;
  job.platform = pc;
  job.policy = cfg_.policy;
  job.plan = std::move(plan);
  job.jitter = jitter;
  job.label = std::move(label);
  return job;
}

SimJob Experiment::shared_job(std::uint64_t jitter) const {
  return make_job(cfg_.platform, nullptr, jitter, "shared");
}

SimJob Experiment::partitioned_job(const opt::PartitionPlan& plan,
                                   std::uint64_t jitter) const {
  return make_job(cfg_.platform,
                  std::make_shared<const opt::PartitionPlan>(plan), jitter,
                  "partitioned");
}

RunOutput Experiment::run(const opt::PartitionPlan* plan,
                          std::uint64_t jitter) const {
  std::shared_ptr<const opt::PartitionPlan> shared_plan;
  if (plan != nullptr)
    shared_plan = std::make_shared<const opt::PartitionPlan>(*plan);
  return execute_job(make_job(cfg_.platform, std::move(shared_plan), jitter,
                              plan != nullptr ? "partitioned" : "shared"));
}

RunOutput Experiment::run_shared_with_l2(std::uint32_t l2_size_bytes) const {
  sim::PlatformConfig pc = cfg_.platform;
  pc.hier.l2.size_bytes = l2_size_bytes;
  return execute_job(make_job(pc, nullptr, cfg_.eval_jitter, "shared-l2"));
}

std::vector<Experiment::ProfileJob> Experiment::profile_jobs() const {
  std::vector<ProfileJob> out;
  const auto task_list = tasks();
  const auto buffer_list = buffers();
  const std::uint32_t runs = std::max(1u, cfg_.profile_runs);
  out.reserve(cfg_.profile_grid.size() * runs);

  for (const std::uint32_t sets : cfg_.profile_grid) {
    // Uniform plan: every task `sets`, buffers per policy; enlarge the L2
    // virtually so the whole plan fits (isolation makes M_i(s) independent
    // of the total size).
    opt::PartitionPlan uplan = opt::uniform_plan(
        sets, task_list, buffer_list, cfg_.platform.hier.l2, cfg_.planner);

    sim::PlatformConfig pc = cfg_.platform;
    const std::uint32_t line = pc.hier.l2.line_bytes;
    const std::uint32_t ways = pc.hier.l2.ways;
    const std::uint32_t need_sets = std::max(uplan.used_sets, 1u);
    pc.hier.l2.size_bytes = need_sets * line * ways;
    // Isolation runs use outcome-invariant L2 timing (mem/hierarchy.hpp):
    // schedules — and hence every client's L2 access stream — are then
    // identical at every grid size, which is what lets kTraceReplay
    // reproduce this sweep exactly from profile_runs captures. Off-chip
    // latency is reconstructed analytically in both profiler modes.
    pc.hier.uniform_l2_timing = true;
    uplan.total_sets = need_sets;

    const auto plan = std::make_shared<const opt::PartitionPlan>(std::move(uplan));
    for (std::uint32_t r = 0; r < runs; ++r) {
      ProfileJob pj;
      pj.sets = sets;
      pj.run = r;
      pj.job = make_job(pc, plan, r,
                        "profile/s=" + std::to_string(sets) +
                            "/r=" + std::to_string(r));
      out.push_back(std::move(pj));
    }
  }
  return out;
}

opt::MissProfile Experiment::profile() const { return profile_with(cfg_.profiler); }

opt::MissProfile Experiment::profile_with(ProfilerMode mode) const {
  const std::vector<ProfileJob> sweep = profile_jobs();
  return mode == ProfilerMode::kTraceReplay ? profile_replay(sweep)
                                            : profile_fullsim(sweep);
}

opt::MissProfile Experiment::profile_fullsim(
    const std::vector<ProfileJob>& sweep) const {
  Campaign campaign(cfg_.jobs);
  for (const ProfileJob& pj : sweep) campaign.add(pj.job);
  const std::vector<JobResult> results = campaign.run_all();

  const Cycle surcharge = opt::miss_surcharge(cfg_.platform.hier);
  std::vector<opt::ProfileFragment> fragments;
  fragments.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunOutput& out = results[i].output;
    const std::uint32_t sets = sweep[i].sets;
    if (out.results.deadlocked || !out.verified)
      log_warn() << "profiling run unusable at " << sets << " sets";
    opt::ProfileFragment frag;
    frag.order = i;
    for (const auto& t : out.results.tasks)
      frag.add(t.name, sets, static_cast<double>(t.l2.misses),
               static_cast<double>(opt::reconstruct_active_cycles(
                   t.compute_cycles, t.mem_cycles, t.l2_demand_misses,
                   surcharge)),
               static_cast<double>(t.instructions));
    for (const auto& b : out.results.buffers)
      frag.add(b.name, sets, static_cast<double>(b.l2.misses), 0.0, 0.0);
    fragments.push_back(std::move(frag));
  }
  return opt::fold_fragments(std::move(fragments));
}

std::vector<opt::CaptureRun> Experiment::capture_runs() const {
  return capture_runs_for(profile_jobs());
}

std::string Experiment::trace_digest(std::uint64_t jitter) const {
  serialize::ByteWriter w;
  w.varint(opt::kTraceFormatVersion);
  w.str(cfg_.trace_key);
  w.u8(static_cast<std::uint8_t>(cfg_.policy));
  const sim::PlatformConfig& pc = cfg_.platform;
  w.varint(pc.task_switch_cost);
  w.varint(pc.quantum_firings);
  w.varint(pc.switch_touch_bytes);
  w.varint(pc.max_dispatches);
  hash_region(w, pc.rt_data);
  hash_region(w, pc.rt_bss);
  const mem::HierarchyConfig& h = pc.hier;
  w.varint(h.num_procs);
  hash_cache_config(w, h.l1);
  hash_cache_config(w, h.l2);
  w.varint(h.bus.cycles_per_transaction);
  w.varint(h.bus.arbitration_latency);
  w.varint(h.dram.num_banks);
  w.varint(h.dram.access_latency);
  w.varint(h.dram.bank_occupancy);
  w.varint(h.dram.interleave_bytes);
  w.varint(h.l1_hit_latency);
  w.varint(h.l2_hit_latency);
  w.varint(h.seed);
  w.varint(jitter);
  return serialize::fnv1a128_hex(w.bytes().data(), w.size());
}

std::vector<opt::CaptureRun> Experiment::capture_runs_for(
    const std::vector<ProfileJob>& sweep) const {
  const std::uint32_t runs = std::max(1u, cfg_.profile_runs);
  if (sweep.empty()) return {};
  assert(sweep.size() >= runs && "sweep shorter than one grid point");

  opt::TraceStore* store = cfg_.trace_store.get();
  if (store != nullptr && cfg_.trace_key.empty()) {
    log_warn() << "trace store ignored: ExperimentConfig::trace_key is "
                  "empty (digests would not identify the application)";
    store = nullptr;
  }

  // Consult the store first: hits need no simulation at all.
  std::vector<opt::CaptureRun> captures(runs);
  std::vector<std::string> digests(runs);
  std::vector<bool> loaded(runs, false);
  if (store != nullptr) {
    for (std::uint32_t r = 0; r < runs; ++r) {
      digests[r] = trace_digest(sweep[r].job.jitter);
      if (auto hit = store->load(digests[r])) {
        captures[r] = std::move(*hit);
        loaded[r] = true;
      }
    }
  }

  // The sweep is sizes-outer/runs-inner, so entries [0, runs) are the
  // first grid point's jitter seeds — the capture runs. Which grid point
  // hosts the capture is immaterial: under uniform L2 timing the streams
  // are identical at every size (mem/hierarchy.hpp).
  Campaign campaign(cfg_.jobs);
  std::vector<std::uint32_t> pending;
  std::vector<std::shared_ptr<opt::TraceRecorder>> recorders;
  for (std::uint32_t r = 0; r < runs; ++r) {
    if (loaded[r]) continue;
    const ProfileJob& pj = sweep[r];
    assert(pj.run == r);
    SimJob job = pj.job;
    auto rec = std::make_shared<opt::TraceRecorder>(
        cfg_.platform.hier.l2.line_bytes);
    job.trace_sink = rec;
    job.label += "/capture";
    recorders.push_back(std::move(rec));
    pending.push_back(r);
    campaign.add(std::move(job));
  }
  const std::vector<JobResult> results = campaign.run_all();

  for (std::size_t i = 0; i < pending.size(); ++i) {
    const std::uint32_t r = pending[i];
    const RunOutput& out = results[i].output;
    const bool usable = !out.results.deadlocked && out.verified;
    if (!usable)
      log_warn() << "capture run unusable at jitter " << r;
    captures[r] = assemble_capture(*recorders[i], out);
    // Only sound captures become durable: a deadlocked or unverified run
    // written to the store would be served as a silent hit forever.
    if (store != nullptr && usable) store->save(digests[r], captures[r]);
  }
  return captures;
}

opt::CaptureRun Experiment::capture_single(std::uint32_t run,
                                           bool* usable) const {
  const std::uint32_t runs = std::max(1u, cfg_.profile_runs);
  if (run >= runs)
    throw std::invalid_argument("capture_single: run " + std::to_string(run) +
                                " out of range (profile_runs " +
                                std::to_string(runs) + ")");
  const std::vector<ProfileJob> sweep = profile_jobs();
  if (sweep.size() < runs)
    throw std::invalid_argument(
        "capture_single: empty profile grid (no capture job to run)");
  assert(sweep[run].run == run);
  SimJob job = sweep[run].job;
  const auto rec =
      std::make_shared<opt::TraceRecorder>(cfg_.platform.hier.l2.line_bytes);
  job.trace_sink = rec;
  job.label += "/capture";
  const RunOutput out = execute_job(job);
  const bool ok = !out.results.deadlocked && out.verified;
  if (!ok) log_warn() << "capture run unusable at jitter " << run;
  if (usable != nullptr) *usable = ok;
  return assemble_capture(*rec, out);
}

std::vector<opt::ReplayJob> Experiment::replay_jobs(
    const std::vector<opt::CaptureRun>& captures) const {
  const std::vector<ProfileJob> sweep = profile_jobs();
  std::vector<opt::ReplayJob> jobs;
  jobs.reserve(sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ProfileJob& pj = sweep[i];
    assert(pj.run < captures.size());
    jobs.push_back(opt::ReplayJob{&captures[pj.run], pj.job.plan, pj.sets,
                                  static_cast<std::uint64_t>(i)});
  }
  return jobs;
}

std::vector<opt::MultiReplayJob> Experiment::multi_replay_jobs(
    const std::vector<opt::CaptureRun>& captures) const {
  const std::vector<ProfileJob> sweep = profile_jobs();
  const std::uint32_t runs = std::max(1u, cfg_.profile_runs);
  std::vector<opt::MultiReplayJob> jobs(std::min<std::size_t>(
      runs, captures.size()));
  for (std::size_t r = 0; r < jobs.size(); ++r)
    jobs[r].capture = &captures[r];
  // Same canonical orders as replay_jobs (sweep index), so a fold of the
  // fused fragments replays the exact serial accumulation sequence.
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ProfileJob& pj = sweep[i];
    assert(pj.run < jobs.size());
    jobs[pj.run].points.push_back(opt::ReplayGridPoint{
        pj.job.plan, pj.sets, static_cast<std::uint64_t>(i)});
  }
  return jobs;
}

opt::MissProfile Experiment::profile_replay(
    const std::vector<ProfileJob>& sweep) const {
  if (sweep.empty()) return {};
  const std::vector<opt::CaptureRun> captures = capture_runs_for(sweep);

  const Cycle surcharge = opt::miss_surcharge(cfg_.platform.hier);
  const mem::CacheConfig& l2 = cfg_.platform.hier.l2;
  const std::uint64_t l2_seed = cfg_.platform.hier.l2_seed();

  if (cfg_.replay_kernel == opt::ReplayKernel::kPerSize) {
    // Legacy sharding: one campaign item per (capture, size) — each item
    // re-decodes every stream of its capture. Kept as the independent
    // reference path for the fused kernel.
    std::vector<opt::ProfileFragment> fragments(sweep.size());
    Campaign campaign(cfg_.jobs);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const ProfileJob& pj = sweep[i];
      const opt::CaptureRun* capture = &captures[pj.run];
      campaign.add(
          [&fragments, i, capture, plan = pj.job.plan, sets = pj.sets, &l2,
           l2_seed, surcharge] {
            fragments[i] = opt::replay_fragment(*capture, *plan, l2, l2_seed,
                                                sets,
                                                static_cast<std::uint64_t>(i),
                                                surcharge);
            RunOutput out;
            out.verified = true;
            return out;
          },
          pj.job.label + "/replay");
    }
    campaign.run_all();
    return opt::fold_fragments(std::move(fragments));
  }

  // Fused kernel: each capture run decodes every stream ONCE for the whole
  // grid, so the campaign shards by (capture, stream) instead of
  // (capture, size) — replay_stream is thread-safe for distinct streams,
  // and per-stream items balance a sweep whose stream sizes are skewed.
  // Assembly (fragments + fold by canonical order) stays serial, keeping
  // the output bit-identical at any worker count.
  const std::vector<opt::MultiReplayJob> jobs = multi_replay_jobs(captures);
  std::vector<std::unique_ptr<opt::MultiReplay>> replays;
  replays.reserve(jobs.size());
  for (const opt::MultiReplayJob& job : jobs)
    replays.push_back(std::make_unique<opt::MultiReplay>(
        *job.capture, job.points, l2, l2_seed));

  Campaign campaign(cfg_.jobs);
  for (std::size_t r = 0; r < replays.size(); ++r) {
    opt::MultiReplay* mr = replays[r].get();
    for (std::size_t s = 0; s < mr->num_streams(); ++s) {
      campaign.add(
          [mr, s] {
            mr->replay_stream(s);
            RunOutput out;
            out.verified = true;
            return out;
          },
          "profile/r=" + std::to_string(r) + "/stream=" + std::to_string(s) +
              "/replay");
    }
  }
  campaign.run_all();

  std::vector<opt::ProfileFragment> fragments;
  fragments.reserve(sweep.size());
  for (const auto& mr : replays)
    for (opt::ProfileFragment& f : mr->fragments(surcharge))
      fragments.push_back(std::move(f));
  return opt::fold_fragments(std::move(fragments));
}

opt::PartitionPlan Experiment::plan(const opt::MissProfile& prof) const {
  return opt::plan_partitions(prof, tasks(), buffers(), cfg_.platform.hier.l2,
                              cfg_.planner);
}

std::string app_trace_key(const std::string& label,
                          const apps::AppConfig& content) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(content.digest()));
  return label + "/" + buf;
}

}  // namespace cms::core
