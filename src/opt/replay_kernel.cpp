#include "opt/replay_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "mem/cache.hpp"

namespace cms::opt {

namespace {

/// Exact x % d for x, d < 2^32 via one wraparound multiply + one
/// high-multiply (Lemire's fastmod) — the per-event (line % total) %
/// client_sets chain costs 2 of these PER LANE, and a hardware divide
/// there would dominate the whole kernel. d == 1 works out naturally:
/// magic wraps to 0 and the result is 0.
struct FastMod {
  std::uint64_t magic = 0;  // UINT64_MAX / d + 1 (mod 2^64)
  std::uint32_t d = 1;

  static FastMod make(std::uint32_t d) {
    return FastMod{~std::uint64_t{0} / d + 1, d};
  }
  std::uint32_t mod(std::uint32_t x) const {
    const std::uint64_t low = magic * x;
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(low) * d) >> 64);
  }
};

/// One grid size's lane block: its index-translation geometry and where
/// its SoA tag/stamp state lives inside the stream's arrays.
struct LaneGeom {
  FastMod total;        // virtual total sets of this point's uniform plan
  FastMod client_sets;  // this stream's exclusive sets at this point
  std::size_t base = 0;  // offset of this lane's block in tags/stamps
};

/// Plan entry of `client` in `plan`, or the replay_fragment error.
const PlanEntry& entry_for(const PartitionPlan& plan, mem::ClientId client) {
  for (const PlanEntry& e : plan.entries)
    if (e.client == client) return e;
  throw std::invalid_argument("trace stream for unplanned client " +
                              client.to_string());
}

}  // namespace

MultiReplay::MultiReplay(const CaptureRun& capture,
                         std::vector<ReplayGridPoint> points,
                         const mem::CacheConfig& l2, std::uint64_t l2_seed)
    : capture_(&capture),
      points_(std::move(points)),
      l2_(l2),
      l2_seed_(l2_seed) {
  slot_ids_.reserve(capture_->tasks.size());
  for (const CaptureTaskStats& t : capture_->tasks) slot_ids_.push_back(t.id);

  const std::size_t nstreams = capture_->trace.streams.size();
  const std::size_t npoints = points_.size();
  client_sets_.resize(nstreams);
  misses_.resize(nstreams);
  demand_.resize(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s) {
    const mem::ClientId client = capture_->trace.streams[s].client();
    client_sets_[s].reserve(npoints);
    // entry_for throws for a client missing from ANY point's plan — the
    // same std::invalid_argument the first offending per-size job would
    // have raised, just before any work instead of mid-sweep.
    for (const ReplayGridPoint& p : points_) {
      assert(p.plan != nullptr);
      client_sets_[s].push_back(
          std::max(entry_for(*p.plan, client).partition.num_sets, 1u));
    }
    misses_[s].assign(npoints, 0);
    demand_[s].assign((slot_ids_.size() + 1) * npoints, 0);
  }
}

// The fused hot loop: decode the stream ONCE, push every event through
// every lane. The tag encoding: a way holds `line_of(addr)/line_bytes + 1`,
// 0 = invalid — so "which way matches" and "first invalid way" are the
// SAME compare, with needle = tag resp. 0.
//
// Bit-identity invariants mirrored from mem::SetAssocCache::access_at
// (any deviation breaks the MissProfile::identical safety net):
//  * the access tick pre-increments per event and is SHARED by all
//    lanes — a standalone per-size cache sees exactly this stream, so
//    its tick sequence is the event ordinal;
//  * hits refresh the stamp under LRU only;
//  * a write miss under kWriteThroughNoAllocate counts but does not
//    allocate (and does not consume a kRandom draw);
//  * victim choice prefers the FIRST invalid way, then LRU/FIFO argmin
//    with strict < (stamps are unique, ties impossible), then the
//    counter-based kRandom stream (mem::SetAssocCache::random_victim_way
//    — the counter advances per replacement, per lane).
void MultiReplay::replay_stream(std::size_t s) {
  assert(s < num_streams());
  const ClientTrace& stream = capture_->trace.streams[s];
  const std::uint32_t ways = l2_.ways;
  const std::size_t nlanes = points_.size();
  const bool count_issuers = !capture_->is_scheduler_client(stream.client());
  const bool write_allocate =
      l2_.write_policy != mem::WritePolicy::kWriteThroughNoAllocate;
  const bool lru = l2_.replacement == mem::Replacement::kLru;
  const bool random = l2_.replacement == mem::Replacement::kRandom;
  const std::uint64_t client_key = stream.client().key();
  // line_bytes rescale of a foreign-granularity capture (tags must match
  // SetAssocCache::line_of exactly); both are equal in practice.
  const std::uint32_t trace_line_bytes = capture_->trace.line_bytes;
  const bool rescale = trace_line_bytes != l2_.line_bytes;

  std::vector<LaneGeom> lanes;
  lanes.reserve(nlanes);
  std::size_t slots = 0;
  for (std::size_t p = 0; p < nlanes; ++p) {
    LaneGeom g;
    g.total = FastMod::make(std::max(points_[p].plan->total_sets, 1u));
    g.client_sets = FastMod::make(client_sets_[s][p]);
    g.base = slots;
    slots += static_cast<std::size_t>(client_sets_[s][p]) * ways;
    lanes.push_back(g);
  }

  // Replacement state lives only for this pass (dirty bits and owners are
  // not modeled: per mem::SetAssocCache::kOutcomeStateIsTagsStampsCounters
  // they cannot influence a hit/miss outcome, and outcomes are all replay
  // consumes); only the miss/demand counter rows persist.
  std::vector<std::uint64_t> tag_state(slots, 0);  // 0 = invalid
  std::vector<std::uint64_t> stamp_state(slots, 0);
  std::vector<std::uint64_t> rand_seq(nlanes, 0);  // per-lane kRandom draws
  std::uint64_t* const misses = misses_[s].data();
  std::uint64_t* const demand = demand_[s].data();
  // Dense task-slot table: position in CaptureRun::tasks, resolved on
  // task-change events only; ids not in the table use the trailing trash
  // slot (their demand misses are never read back).
  const std::size_t trash_slot = slot_ids_.size();

  // First way whose tag equals `needle`, or -1: the scan order of
  // SetAssocCache::find. Hits dominate, so the first-invalid probe
  // (needle 0) runs only on a miss.
  const auto find_way = [ways](const std::uint64_t* tags,
                               std::uint64_t needle) {
    for (std::uint32_t w = 0; w < ways; ++w)
      if (tags[w] == needle) return static_cast<int>(w);
    return -1;
  };

  std::uint64_t tick = 0;
  TaskId cur_task = kInvalidTask;
  std::size_t cur_slot = trash_slot;

  auto rd = stream.reader();
  TraceEvent ev;
  while (rd.next(ev)) {
    ++tick;
    // Tag = canonical line index + 1 (0 stays the invalid sentinel). A
    // capture at a foreign line granularity is collapsed through the same
    // arithmetic as SetAssocCache::line_of.
    const std::uint64_t tag =
        (rescale ? ev.line_index * trace_line_bytes / l2_.line_bytes
                 : ev.line_index) +
        1;
    const bool no_alloc = ev.type == AccessType::kWrite && !write_allocate;
    const bool count_demand = count_issuers && !ev.l1_writeback;
    if (ev.task != cur_task) {
      cur_task = ev.task;
      cur_slot = trash_slot;
      for (std::size_t t = 0; t < slot_ids_.size(); ++t)
        if (slot_ids_[t] == cur_task) {
          cur_slot = t;
          break;
        }
    }
    // The index chain works on 32-bit values (FastMod); line indices
    // above 2^32 would need the slow path, but a capture's line index is
    // bounded by the simulated address space (far below 2^32) — guarded
    // here so the claim is checked, not assumed.
    const bool fast = ev.line_index <= 0xFFFFFFFFull;
    const auto line32 = static_cast<std::uint32_t>(ev.line_index);

    for (std::size_t l = 0; l < nlanes; ++l) {
      const LaneGeom& g = lanes[l];
      const std::uint32_t idx =
          fast ? g.client_sets.mod(g.total.mod(line32))
               : static_cast<std::uint32_t>((ev.line_index % g.total.d) %
                                            g.client_sets.d);
      const std::size_t set_base =
          g.base + static_cast<std::size_t>(idx) * ways;
      std::uint64_t* tags = tag_state.data() + set_base;
      std::uint64_t* stamps = stamp_state.data() + set_base;
      const int hit_way = find_way(tags, tag);
      if (hit_way >= 0) {
        if (lru) stamps[hit_way] = tick;
        continue;
      }
      ++misses[l];
      if (count_demand) ++demand[cur_slot * nlanes + l];
      if (no_alloc) continue;  // write-through no-allocate: nothing cached
      int victim = find_way(tags, 0);  // first invalid way
      if (victim < 0) {
        if (random) {
          victim = static_cast<int>(mem::SetAssocCache::random_victim_way(
              l2_seed_, client_key, rand_seq[l]++, ways));
        } else {  // kLru / kFifo: first way with the minimal stamp
          victim = 0;
          for (std::uint32_t w = 1; w < ways; ++w)
            if (stamps[w] < stamps[victim]) victim = static_cast<int>(w);
        }
      }
      tags[victim] = tag;
      stamps[victim] = tick;
    }
  }
}

std::vector<ProfileFragment> MultiReplay::fragments(Cycle surcharge) const {
  const std::size_t npoints = points_.size();
  const std::size_t nstreams = capture_->trace.streams.size();

  // Stream index of each task's own client, for the per-task miss rows.
  std::unordered_map<mem::ClientId, std::size_t, mem::ClientIdHash> stream_of;
  stream_of.reserve(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s)
    stream_of.emplace(capture_->trace.streams[s].client(), s);

  std::vector<ProfileFragment> out;
  out.reserve(npoints);
  for (std::size_t p = 0; p < npoints; ++p) {
    const ReplayGridPoint& point = points_[p];
    ProfileFragment frag;
    frag.order = point.order;
    // Sample order replicates replay_fragment exactly: tasks in capture
    // (creation) order first, then buffer streams in stream order.
    for (std::size_t slot = 0; slot < capture_->tasks.size(); ++slot) {
      const CaptureTaskStats& t = capture_->tasks[slot];
      const auto it = stream_of.find(mem::ClientId::task(t.id));
      const std::uint64_t m =
          it != stream_of.end() ? misses_[it->second][p] : 0;
      std::uint64_t dm = 0;
      for (std::size_t s = 0; s < nstreams; ++s)
        dm += demand_[s][slot * npoints + p];
      frag.add(t.name, point.sets, static_cast<double>(m),
               static_cast<double>(reconstruct_active_cycles(
                   t.compute_cycles, t.mem_cycles, dm, surcharge)),
               static_cast<double>(t.instructions));
    }
    for (std::size_t s = 0; s < nstreams; ++s) {
      const ClientTrace& stream = capture_->trace.streams[s];
      if (!stream.client().is_buffer()) continue;
      frag.add(entry_for(*point.plan, stream.client()).name, point.sets,
               static_cast<double>(misses_[s][p]), 0.0, 0.0);
    }
    out.push_back(std::move(frag));
  }
  return out;
}

MissProfile replay_profile_multi(const std::vector<MultiReplayJob>& jobs,
                                 const mem::CacheConfig& l2,
                                 std::uint64_t l2_seed, Cycle surcharge,
                                 ReplayKernel /*kernel*/) {
  std::vector<ProfileFragment> fragments;
  for (const MultiReplayJob& job : jobs) {
    assert(job.capture != nullptr);
    MultiReplay mr(*job.capture, job.points, l2, l2_seed);
    for (std::size_t s = 0; s < mr.num_streams(); ++s) mr.replay_stream(s);
    for (ProfileFragment& f : mr.fragments(surcharge))
      fragments.push_back(std::move(f));
  }
  return fold_fragments(std::move(fragments));
}

}  // namespace cms::opt
