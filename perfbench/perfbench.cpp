// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload plan-cold|plan-warm|serve-mix --seed N --seconds S
//             --trace 0|1 --server PATH --work-dir DIR [--spans-out FILE]
//             [--git-sha SHA]
//
// Workloads (closed loop, 4 clients, inputs generated from --seed; see
// perfbench/metrics.json for the reasons and the metric interactions):
//   plan-cold  the paper's pipeline from an empty store, repeated: a cold
//              svc::PlanningService::plan (jobs=2) for jpeg-canny, then
//              Experiment::run_shared and run_partitioned(plan); the same
//              for mpeg2. One op = one iteration over both applications.
//   plan-warm  in-process plans over a store populated in set-up, plan
//              cache off, one service per client: seeded grids (8-63
//              points in 1..256) and eps values, so every request loads,
//              decodes, replays and solves, and none captures. One op =
//              one plan request.
//   serve-mix  example_plan_server on an ephemeral port (disk plan cache,
//              10 ms coalesce window, 4 net workers) over a store populated
//              in set-up; one connection per client. 3 of 4 requests repeat
//              a hot set of 8 (plan-cache hits); 1 of 4 uses a fresh grid
//              (plan-cache miss) drawn from a superset shared by all
//              connections, so concurrent misses coalesce. One op = one
//              request round trip.
//
// --trace 0 measures the end-to-end metrics, with timings rescaled to a
// reference host speed (see HostSpeed; the raw values are printed too);
// --trace 1 records spans in this file around each layer call (kept in
// memory, written to --spans-out at the end) and reports the per-layer
// metrics instead.
//
// Output: a provenance line, then the result line
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// Exit code 1 when a correctness gate fails (the result is still printed).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/serialize.hpp"
#include "core/scenario.hpp"
#include "opt/compositionality.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"
#include "opt/trace_store.hpp"
#include "svc/plan_protocol.hpp"
#include "svc/planning_service.hpp"

extern char** environ;

using namespace cms;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point a) {
  return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

/// Linearly interpolated quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex_digest(const std::string& text) {
  return serialize::fnv1a128_hex(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- CLI ----

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string server;
  fs::path work_dir;
  std::string spans_out;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
      have_trace = true;
    } else if (flag == "--server") {
      a.server = val;
    } else if (flag == "--work-dir") {
      a.work_dir = val;
    } else if (flag == "--spans-out") {
      a.spans_out = val;
    } else if (flag == "--git-sha") {
      a.git_sha = val;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload != "plan-cold" && a.workload != "plan-warm" &&
      a.workload != "serve-mix")
    throw std::invalid_argument("--workload must be plan-cold|plan-warm|serve-mix");
  if (!have_seed || !have_seconds || !have_trace || a.work_dir.empty())
    throw std::invalid_argument(
        "--seed, --seconds, --trace and --work-dir are required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0)
    throw std::invalid_argument("--seconds must be in (0, 600]");
  if (a.workload == "serve-mix" && a.server.empty())
    throw std::invalid_argument("serve-mix needs --server");
  return a;
}

// ------------------------------------------------------------- result ----

struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::uint64_t gate_failures = 0;
  std::vector<std::string> errors;  // the first few gate failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::string> info;  // provenance + digests

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void error(const std::string& why) {
    ++gate_failures;
    if (errors.size() < 20) errors.push_back(why);
  }
  void merge(const Result& o) {
    gate_failures += o.gate_failures;
    for (const auto& e : o.errors)
      if (errors.size() < 20) errors.push_back(e);
    attempted += o.attempted;
    failed += o.failed;
  }
};

// -------------------------------------------------------------- spans ----

/// One timed layer call: name, start/end relative to the run start, the
/// span that caused it and the request it belongs to, plus numeric
/// attributes (counts, server-reported stage times).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
  std::vector<std::pair<std::string, double>> attrs;

  double ms() const { return end_ms - start_ms; }
  double attr(const std::string& key) const {
    for (const auto& [k, v] : attrs)
      if (k == key) return v;
    return 0.0;
  }
};

/// In-memory span recorder shared by the client threads of one run. A
/// disabled tracer records nothing and returns span id -1.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  int begin(const std::string& name, int parent, std::uint64_t request) {
    if (!on_) return -1;
    const double now = ms_since(t0_);
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, now, now, parent, request, {}});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) {
    if (id < 0) return;
    const double now = ms_since(t0_);
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end_ms = now;
  }
  void attr(int id, const std::string& key, double value) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].attrs.emplace_back(key, value);
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  bool on_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name, int parent, std::uint64_t req)
      : t_(t), id_(t.begin(name, parent, req)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }
  void attr(const std::string& k, double v) { t_.attr(id_, k, v); }

 private:
  Tracer& t_;
  int id_;
};

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

double attr_sum(const std::vector<Span>& spans, const std::string& name,
                const std::string& key) {
  double out = 0.0;
  for (const Span& s : spans)
    if (s.name == name) out += s.attr(key);
  return out;
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (hi <= cur_hi) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
      }
      cur_hi = hi;
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[i] = std::max(0.0, spans[i].ms() - covered);
  }
  return out;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request;
    for (const auto& [k, v] : s.attrs) out << ", \"" << k << "\": " << v;
    out << "}";
  }
  out << "\n]\n";
}

// ---------------------------------------------------------- generator ----

/// Seeded input generator. Only its outputs reach the program: scenario
/// names, grids and eps values, as requests.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  /// `k` distinct sizes from `universe`, sorted.
  std::vector<std::uint32_t> pick(std::vector<std::uint32_t> universe,
                                  std::size_t k) {
    k = std::min(k, universe.size());
    for (std::size_t i = 0; i < k; ++i)
      std::swap(universe[i], universe[i + below(universe.size() - i)]);
    universe.resize(k);
    std::sort(universe.begin(), universe.end());
    return universe;
  }

  /// Curvature tolerance in [0.001, 0.020] as its wire text, so the
  /// in-process and the served request parse the very same double.
  std::string eps_text() {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.4f",
                  static_cast<double>(10 + below(191)) / 10000.0);
    return buf;
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::mt19937_64 rng_;
};

std::vector<std::uint32_t> sizes_2_to_256() {
  std::vector<std::uint32_t> u(255);
  for (std::uint32_t i = 0; i < 255; ++i) u[i] = i + 2;
  return u;
}

/// A grid of `k` sizes: size 1, which keeps every plan feasible (each task
/// and buffer can always fall back to one set), plus k-1 from `universe`.
std::vector<std::uint32_t> grid_of(Gen& gen, std::vector<std::uint32_t> universe,
                                   std::size_t k) {
  std::vector<std::uint32_t> g = gen.pick(std::move(universe), k - 1);
  g.insert(g.begin(), 1);
  return g;
}

const std::vector<std::string> kApps = {"jpeg-canny", "mpeg2"};

struct Request {
  std::string scenario;
  std::vector<std::uint32_t> grid;
  std::string eps;
  int hot = -1;  // serve-mix: index in the hot set, -1 for a fresh grid

  std::string line() const {
    std::string out = "plan " + scenario + " grid=";
    for (std::size_t i = 0; i < grid.size(); ++i)
      out += (i ? "," : "") + std::to_string(grid[i]);
    return out + " eps=" + eps;
  }
  svc::PlanRequest to_plan_request() const {
    svc::PlanRequest req;
    req.scenario = scenario;
    req.grid = grid;
    req.curvature_eps = std::strtod(eps.c_str(), nullptr);
    return req;
  }
};

/// plan-warm: blocks of 8 requests, 4 per application, with one grid size
/// from each 7-wide stratum of [8, 63], so every seed has the same mix of
/// grid sizes and only the points and eps values differ.
std::vector<Request> warm_block(Gen& gen) {
  std::vector<std::size_t> sizes(8);
  for (std::size_t j = 0; j < 8; ++j) sizes[j] = 8 + 7 * j + gen.below(7);
  gen.shuffle(sizes);
  std::vector<std::string> apps = {kApps[0], kApps[0], kApps[0], kApps[0],
                                   kApps[1], kApps[1], kApps[1], kApps[1]};
  gen.shuffle(apps);
  std::vector<Request> block(8);
  for (std::size_t j = 0; j < 8; ++j) {
    block[j].scenario = apps[j];
    block[j].grid = grid_of(gen, sizes_2_to_256(), sizes[j]);
    block[j].eps = gen.eps_text();
  }
  return block;
}

// --------------------------------------------------------------- misc ----

/// Removes a directory tree when it goes out of scope.
struct TempDir {
  fs::path path;
  explicit TempDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

std::shared_ptr<opt::TraceStore> open_store(const fs::path& dir) {
  return std::make_shared<opt::TraceStore>(dir.string());
}

/// Fill a fresh store with every capture plan-warm and serve-mix replay:
/// the capture half of each application, two jitter runs on a 2-worker
/// campaign, written back to the store.
void populate_store(const fs::path& dir) {
  const auto store = open_store(dir);
  for (const std::string& app : kApps) {
    const core::Experiment exp = core::scenarios().make_experiment(
        app, 2u, core::ProfilerMode::kTraceReplay, store);
    exp.capture_runs();
  }
}

struct EvalCounts {
  std::uint64_t shared_misses = 0, part_misses = 0;
  std::uint64_t shared_accesses = 0, part_accesses = 0;
  double part_cpi = 0.0;

  bool operator==(const EvalCounts&) const = default;
};

/// max per-task |expected - simulated| / total simulated task misses (%),
/// from the plan's expected misses — opt::compare_expected_vs_simulated's
/// formula, which needs the whole profile the service does not return.
/// The traced run checks the two agree.
double comp_err_pct(const opt::PartitionPlan& plan,
                    const sim::SimResults& part) {
  double total = 0.0, worst = 0.0;
  for (const auto& t : part.tasks) total += static_cast<double>(t.l2.misses);
  for (const auto& e : plan.entries) {
    if (!e.is_task) continue;
    const sim::TaskRunStats* t = part.find_task(e.name);
    if (t == nullptr) continue;
    worst = std::max(worst, std::abs(e.expected_misses -
                                     static_cast<double>(t->l2.misses)));
  }
  return 100.0 * ratio(worst, total);
}

struct Eval {
  EvalCounts counts;
  double comp_err_pct = 0.0;
  sim::SimResults part;
};

/// Run the shared baseline and `plan` partitioned (one "sim.eval" span
/// each); gates on verification, deadlock and the paper's 2% bound.
Eval evaluate(const core::Experiment& exp, const opt::PartitionPlan& plan,
              const std::string& app, Result& res, Tracer& tr, int parent,
              std::uint64_t request) {
  auto timed_run = [&](const opt::PartitionPlan* p) {
    Scoped s(tr, "sim.eval", parent, request);
    core::RunOutput out = p ? exp.run_partitioned(*p) : exp.run_shared();
    s.attr("l2_accesses", static_cast<double>(out.results.l2_accesses));
    if (!out.verified || out.results.deadlocked)
      res.error(app + (p ? ": partitioned" : ": shared") +
                " run unverified or deadlocked");
    return out;
  };
  const core::RunOutput shared = timed_run(nullptr);
  core::RunOutput part = timed_run(&plan);
  Eval e;
  e.counts.shared_misses = shared.results.l2_misses;
  e.counts.part_misses = part.results.l2_misses;
  e.counts.shared_accesses = shared.results.l2_accesses;
  e.counts.part_accesses = part.results.l2_accesses;
  e.counts.part_cpi = part.results.mean_cpi();
  e.comp_err_pct = comp_err_pct(plan, part.results);
  if (e.comp_err_pct > 2.0)
    res.error(app + ": comp_err_pct " + std::to_string(e.comp_err_pct) +
              " > 2");
  e.part = std::move(part.results);
  return e;
}

// ----------------------------------------------------------- plan-cold ----

struct ColdState {
  std::map<std::string, EvalCounts> counts;         // first iteration's
  std::map<std::string, std::string> plan_digests;  // first iteration's
  std::map<std::string, double> comp_err;
};

/// Record one app's outcome; later iterations must repeat the first one
/// exactly (simulated counts and plan digest).
void record_app(ColdState& st, const std::string& app, const EvalCounts& c,
                const std::string& digest, double comp_err, Result& res) {
  if (!st.counts.count(app)) {
    st.counts[app] = c;
    st.plan_digests[app] = digest;
    st.comp_err[app] = comp_err;
    return;
  }
  if (!(st.counts[app] == c)) res.error(app + ": simulated counts differ between iterations");
  if (st.plan_digests[app] != digest)
    res.error(app + ": plan digest differs between iterations");
}

void report_mem(const ColdState& st, Result& res) {
  double worst = 0.0;
  for (std::size_t i = 0; i < kApps.size(); ++i) {
    const std::string p = "mem.app" + std::to_string(i + 1) + ".";
    const auto it = st.counts.find(kApps[i]);
    const EvalCounts c = it != st.counts.end() ? it->second : EvalCounts{};
    res.set(p + "shared_l2_misses", static_cast<double>(c.shared_misses), "count");
    res.set(p + "part_l2_misses", static_cast<double>(c.part_misses), "count");
    res.set(p + "part_cpi", c.part_cpi, "cpi");
    res.set(p + "miss_reduction_x",
            ratio(static_cast<double>(c.shared_misses),
                  static_cast<double>(c.part_misses)),
            "x");
    const auto ce = st.comp_err.find(kApps[i]);
    if (ce != st.comp_err.end()) worst = std::max(worst, ce->second);
  }
  res.set("mem.comp_err_pct", worst, "%");
}

std::string cold_digest(const ColdState& st) {
  std::string all;
  for (const auto& [app, d] : st.plan_digests) all += app + "=" + d + ";";
  return hex_digest(all);
}

void cold_setup(const fs::path& dir) {
  TempDir store_dir(dir / "store");
  svc::PlanningServiceConfig cfg;
  cfg.store = open_store(store_dir.path);
  cfg.jobs = 2;
  svc::PlanningService service(std::move(cfg));
  // Building each application once generates its synthetic content and
  // validates the scenario before anything is timed.
  for (const std::string& app : kApps)
    core::scenarios().make_experiment(app).tasks();
}

void stage_attrs(Scoped& s, const svc::PlanResponse& r) {
  s.attr("capture_ms", r.capture_ms);
  s.attr("profile_ms", r.profile_ms);
  s.attr("plan_ms", r.plan_ms);
  s.attr("plan_cache_ms", r.plan_cache_ms);
  s.attr("server_total_ms", r.total_ms);
}

/// One application's outcome of a pipeline iteration.
struct AppOutcome {
  std::string app;
  svc::PlanResponse resp;
  Eval eval;
};

/// One plan-cold op: per application, a cold service plan on an empty
/// store, then both evaluation runs. Spans (when `tr` records):
/// pipeline > app > {svc.plan, sim.eval, sim.eval}. `op_ms` gets the
/// iteration's wall time.
std::vector<AppOutcome> cold_iteration(const fs::path& dir, std::uint64_t iter,
                                       Tracer& tr, ColdState& st, Result& res,
                                       double* op_ms) {
  std::vector<AppOutcome> out;
  TempDir store_dir(dir);
  const auto t0 = Clock::now();
  const int root = tr.begin("pipeline", -1, iter);
  svc::PlanningServiceConfig cfg;
  cfg.store = open_store(store_dir.path);
  cfg.jobs = 2;
  svc::PlanningService service(std::move(cfg));
  for (const std::string& app : kApps) {
    ++res.attempted;
    Scoped app_span(tr, "app", root, iter);
    AppOutcome o;
    o.app = app;
    {
      Scoped s(tr, "svc.plan", app_span.id(), iter);
      svc::PlanRequest req;
      req.scenario = app;
      o.resp = service.plan(req);
      stage_attrs(s, o.resp);
    }
    if (!o.resp.ok || o.resp.captured() != o.resp.captures.size() ||
        !o.resp.assignment.feasible) {
      ++res.failed;
      res.error(app + ": cold plan failed: " + o.resp.error);
      continue;
    }
    const core::Experiment exp = core::scenarios().make_experiment(app);
    const std::uint64_t errors_before = res.gate_failures;
    o.eval = evaluate(exp, o.resp.assignment, app, res, tr, app_span.id(), iter);
    if (res.gate_failures != errors_before) ++res.failed;
    record_app(st, app, o.eval.counts, svc::plan_response_digest(o.resp),
               o.eval.comp_err_pct, res);
    out.push_back(std::move(o));
  }
  tr.end(root);
  *op_ms = ms_since(t0);
  return out;
}

/// What a decomposed plan produced.
struct Decomposed {
  opt::PartitionPlan plan;
  opt::MissProfile prof;
  std::vector<opt::CaptureRun> captured;  // runs this decomposition simulated
  std::vector<std::string> digests;       // of `captured`
};

/// The service's plan pipeline as separate layer calls on `store`: probe,
/// capture and save what is missing, load, replay, solve. Spans:
/// decomposed > {opt.store.probe, sim.capture, opt.store.save,
/// opt.store.load, opt.replay, opt.planner}.
Decomposed decompose(const core::Experiment& exp, opt::TraceStore& store,
                     Tracer& tr, std::uint64_t request, Result& res) {
  Decomposed d;
  Scoped dec(tr, "decomposed", -1, request);
  const std::uint32_t runs = std::max(1u, exp.config().profile_runs);
  std::vector<std::string> digests(runs);
  for (std::uint32_t r = 0; r < runs; ++r) {
    digests[r] = exp.trace_digest(r);
    bool resident = false;
    {
      Scoped s(tr, "opt.store.probe", dec.id(), request);
      resident = store.contains(digests[r]);
    }
    if (resident) continue;
    bool usable = false;
    opt::CaptureRun cap;
    {
      Scoped s(tr, "sim.capture", dec.id(), request);
      cap = exp.capture_single(r, &usable);
      s.attr("l2_events", static_cast<double>(cap.trace.total_events()));
    }
    if (!usable) res.error("capture run " + std::to_string(r) + " unusable");
    {
      Scoped s(tr, "opt.store.save", dec.id(), request);
      store.save(digests[r], cap);
    }
    d.captured.push_back(std::move(cap));
    d.digests.push_back(digests[r]);
  }
  std::vector<opt::CaptureRun> loaded(runs);
  for (std::uint32_t r = 0; r < runs; ++r) {
    Scoped s(tr, "opt.store.load", dec.id(), request);
    std::optional<opt::CaptureRun> hit = store.load(digests[r]);
    if (!hit) {
      res.error("capture " + digests[r] + " missing from the store");
      continue;
    }
    loaded[r] = std::move(*hit);
  }
  {
    Scoped s(tr, "opt.replay", dec.id(), request);
    const std::vector<opt::MultiReplayJob> jobs = exp.multi_replay_jobs(loaded);
    double event_points = 0.0;
    for (const auto& j : jobs)
      event_points += static_cast<double>(j.capture->trace.total_events()) *
                      static_cast<double>(j.points.size());
    s.attr("event_points", event_points);
    const auto& hier = exp.config().platform.hier;
    d.prof = opt::replay_profile_multi(
        jobs, hier.l2, hier.l2_seed(), opt::miss_surcharge(hier),
        opt::resolve_replay_kernel(exp.config().replay_kernel));
  }
  {
    Scoped s(tr, "opt.planner", dec.id(), request);
    d.plan = exp.plan(d.prof);
  }
  return d;
}

// ------------------------------------------------------ codec probe ----

struct CodecRates {
  double encode_mb_s = 0.0, decode_mb_s = 0.0, bytes_per_event = 0.0;
};

/// Encode and decode each capture several times; MB/s over the encoded
/// bytes.
CodecRates codec_probe(const std::vector<opt::CaptureRun>& caps,
                       const std::vector<std::string>& digests, Tracer& tr,
                       Result& res) {
  double bytes = 0.0, events = 0.0, enc_ms = 0.0, dec_ms = 0.0;
  Scoped probe(tr, "probe.codec", -1, 0);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    for (int rep = 0; rep < 5; ++rep) {
      const auto te = Clock::now();
      const std::vector<std::uint8_t> blob =
          opt::encode_capture(caps[i], digests[i]);
      enc_ms += ms_since(te);
      const auto td = Clock::now();
      std::string digest;
      const opt::CaptureRun back =
          opt::decode_capture(blob.data(), blob.size(), "probe", &digest);
      dec_ms += ms_since(td);
      if (digest != digests[i] ||
          back.trace.total_events() != caps[i].trace.total_events())
        res.error("codec round trip mismatch");
      bytes += static_cast<double>(blob.size());
      events += static_cast<double>(caps[i].trace.total_events());
    }
  }
  CodecRates r;
  r.encode_mb_s = ratio(bytes / 1e6, enc_ms / 1e3);
  r.decode_mb_s = ratio(bytes / 1e6, dec_ms / 1e3);
  r.bytes_per_event = ratio(bytes, events);
  return r;
}

// ----------------------------------------------- per-layer reporting ----

/// Every per-layer metric, in one fixed order; a workload that does not
/// load a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"sim.capture_ms", "ms"},
    {"sim.capture_l2_access_per_s", "1/s"},
    {"sim.eval_ms", "ms"},
    {"sim.eval_l2_access_per_s", "1/s"},
    {"core.runner.parallel_eff", "ratio"},
    {"opt.trace.encode_mb_per_s", "MB/s"},
    {"opt.trace.decode_mb_per_s", "MB/s"},
    {"opt.trace.bytes_per_event", "B"},
    {"opt.store.load_ms", "ms"},
    {"opt.store.save_ms", "ms"},
    {"opt.store.hit_ratio", "ratio"},
    {"opt.replay.ms", "ms"},
    {"opt.replay.event_points_per_s", "1/s"},
    {"opt.planner.ms", "ms"},
    {"opt.plan_cache.hit_ratio", "ratio"},
    {"opt.plan_cache.lookup_ms", "ms"},
    {"opt.plan_cache.writes", "count"},
    {"svc.capture_ms", "ms"},
    {"svc.profile_ms", "ms"},
    {"svc.plan_ms", "ms"},
    {"svc.total_ms", "ms"},
    {"svc.self_ms", "ms"},
    {"svc.coalesced_ratio", "ratio"},
    {"svc.union_points_saved", "count"},
    {"net.rtt_ms_p50", "ms"},
    {"net.rtt_ms_p99", "ms"},
    {"net.self_ms_p50", "ms"},
    {"net.shed", "count"},
    {"net.deadline_expired", "count"},
    {"trace.self_pct.sim", "%"},
    {"trace.self_pct.opt", "%"},
    {"trace.self_pct.svc", "%"},
    {"trace.self_pct.net", "%"},
    {"trace.uncovered_pct", "%"},
    {"trace.op_ms_p50", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"host.ref_loop_ms", "ms"},
};

using Layers = std::map<std::string, double>;

/// Print every per-layer metric: the layer table, the simulated counts
/// and the failure share.
void report_layers(Layers& l, const ColdState& st, Result& res) {
  for (const auto& [name, unit] : kLayerMetrics) res.set(name, l[name], unit);
  report_mem(st, res);
  res.set("failed_frac",
          ratio(static_cast<double>(res.failed),
                static_cast<double>(res.attempted)),
          "ratio");
}

/// Medians of the service's own stage timings over `resps`.
void report_svc(const std::vector<svc::PlanResponse>& resps, Layers& l) {
  std::vector<double> c, p, pl, t, s;
  for (const auto& r : resps) {
    c.push_back(r.capture_ms);
    p.push_back(r.profile_ms);
    pl.push_back(r.plan_ms);
    t.push_back(r.total_ms);
    s.push_back(r.total_ms - r.capture_ms - r.profile_ms - r.plan_ms -
                r.plan_cache_ms);
  }
  l["svc.capture_ms"] = median(c);
  l["svc.profile_ms"] = median(p);
  l["svc.plan_ms"] = median(pl);
  l["svc.total_ms"] = median(t);
  l["svc.self_ms"] = median(s);
}

/// Per-layer metrics of the decomposed spans (both in-process workloads).
void report_decomposed(const std::vector<Span>& spans, Layers& l) {
  const std::vector<double> cap = durations(spans, "sim.capture");
  l["sim.capture_ms"] = median(cap);
  l["sim.capture_l2_access_per_s"] =
      ratio(attr_sum(spans, "sim.capture", "l2_events"), sum(cap) / 1e3);
  const std::vector<double> ev = durations(spans, "sim.eval");
  l["sim.eval_ms"] = median(ev);
  l["sim.eval_l2_access_per_s"] =
      ratio(attr_sum(spans, "sim.eval", "l2_accesses"), sum(ev) / 1e3);
  l["opt.store.load_ms"] = median(durations(spans, "opt.store.load"));
  l["opt.store.save_ms"] = median(durations(spans, "opt.store.save"));
  const std::vector<double> rep = durations(spans, "opt.replay");
  l["opt.replay.ms"] = median(rep);
  l["opt.replay.event_points_per_s"] =
      ratio(attr_sum(spans, "opt.replay", "event_points"), sum(rep) / 1e3);
  l["opt.planner.ms"] = median(durations(spans, "opt.planner"));
}

/// Cost of recording one span (begin, one attribute, end), ms.
double span_cost_ms() {
  Tracer t(true);
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Scoped s(t, "calibrate", -1, 0);
    s.attr("x", 1.0);
  }
  return ms_since(t0) / kSpans;
}

/// Where the traced ops' time went. An op is a span tree rooted at
/// "pipeline", "request" or "net.request". Each span's self time goes to
/// the layer its name starts with; svc.plan and net.request spans are
/// split by the stage times the service reports (capture -> sim;
/// profile, plan and plan-cache lookup -> opt; the rest of the service's
/// total -> svc; the rest of the round trip -> net). Self time of spans
/// of no layer ("pipeline", "app", "request") is the uncovered
/// remainder. Also reports the traced op median and the tracing
/// overhead: measured span cost x spans per op / op median.
void report_ops(const std::vector<Span>& spans, Layers& l) {
  const std::vector<double> self = self_times(spans);
  std::vector<std::size_t> root(spans.size());
  std::map<std::string, double> layer;
  double total = 0.0, other = 0.0, op_spans = 0.0;
  std::vector<double> op_ms;
  auto is_op = [](const std::string& n) {
    return n == "pipeline" || n == "request" || n == "net.request";
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root[i] = s.parent < 0 ? i : root[static_cast<std::size_t>(s.parent)];
    if (!is_op(spans[root[i]].name)) continue;
    ++op_spans;
    if (s.parent < 0) {
      total += s.ms();
      op_ms.push_back(s.ms());
    }
    if (s.name == "svc.plan" || s.name == "net.request") {
      const double stages = s.attr("capture_ms") + s.attr("profile_ms") +
                            s.attr("plan_ms") + s.attr("plan_cache_ms");
      const double server = s.name == "svc.plan" ? s.ms() : s.attr("server_total_ms");
      layer["sim"] += s.attr("capture_ms");
      layer["opt"] += stages - s.attr("capture_ms");
      layer["svc"] += server - stages;
      layer["net"] += s.ms() - server;
      continue;
    }
    const std::size_t dot = s.name.find('.');
    const std::string prefix = s.name.substr(0, dot);
    if (dot != std::string::npos &&
        (prefix == "sim" || prefix == "opt" || prefix == "svc" || prefix == "net"))
      layer[prefix] += self[i];
    else
      other += self[i];
  }
  for (const char* name : {"sim", "opt", "svc", "net"})
    l[std::string("trace.self_pct.") + name] = 100.0 * ratio(layer[name], total);
  l["trace.uncovered_pct"] = 100.0 * ratio(other, total);
  const double p50 = median(op_ms);
  l["trace.op_ms_p50"] = p50;
  l["trace.overhead_pct"] =
      100.0 * ratio(span_cost_ms() * ratio(op_spans, static_cast<double>(op_ms.size())), p50);
  l["trace.spans"] = static_cast<double>(spans.size());
}

// --------------------------------------------------------- host speed ----
//
// The reference box's per-core speed drifts by up to 1.5x between runs a
// minute apart, and by up to 2x within seconds (a fixed CPU loop shows
// it). That drift would swamp the changes this benchmark exists to
// detect. So every client also times a fixed reference loop, about 1% of
// its busy time, and the end-to-end timings are rescaled to the speed at
// which that loop takes kRefLoopMs. The loop is code of this file: no
// change to the repository can speed it up. Raw timings go to the
// provenance line.

/// The reference loop's typical time on the reference box (4 vCPU,
/// 2.1 GHz x86-64), ms.
constexpr double kRefLoopMs = 1.25;

class HostSpeed {
 public:
  /// Time one pass of the reference loop: 400k random read-modify-writes
  /// over a 256 KiB table. The table fits a core's own L2, so the loop
  /// measures the core's speed rather than the benchmark's own load on
  /// the shared caches and memory.
  void sample() {
    thread_local std::vector<std::uint32_t> table(std::size_t{1} << 16);
    std::uint64_t x = 88172645463325252ull;
    std::uint32_t acc = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < 400000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint32_t& e = table[x & 0xFFFF];
      e += acc;
      acc ^= e + static_cast<std::uint32_t>(x);
    }
    const double ms = ms_since(t0);
    std::lock_guard<std::mutex> lk(mu_);
    sink_ ^= acc;
    samples_.push_back(ms);
  }
  /// Account `ms` of a client's busy time (`debt` is that client's
  /// counter); samples once per 100 ms of it.
  void busy(double& debt, double ms) {
    for (debt += ms; debt >= 100.0; debt -= 100.0) sample();
  }
  /// Median loop time so far, ms.
  double loop_ms() const {
    std::lock_guard<std::mutex> lk(mu_);
    return median(samples_);
  }
  /// Factor that turns a raw duration into one at the reference speed.
  double scale() const { return ratio(kRefLoopMs, loop_ms()); }

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
  std::uint32_t sink_ = 0;  // keeps the loop's result alive
};

// ----------------------------------------------------------- set-up ----

/// Median set-up time of a run: raw seconds, and the host speed sampled
/// around the set-ups.
struct Setup {
  double raw_s = 0.0;
  HostSpeed speed;
};

/// Run `setup` `reps` times, keeping the last one, and time each.
/// Earlier set-ups are torn down by the caller-supplied `teardown`.
template <typename SetupFn, typename Teardown>
void timed_setups(Setup& out, int reps, SetupFn setup, Teardown teardown) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    for (int k = 0; k < 5; ++k) out.speed.sample();
    const auto t0 = Clock::now();
    setup(i);
    secs.push_back(ms_since(t0) / 1e3);
    if (i + 1 < reps) teardown(i);
  }
  out.raw_s = median(secs);
}

/// Set-ups per run: three of the workloads that fill a store (seconds
/// each); more of plan-cold's, which takes milliseconds and so drifts more
/// with the machine.
constexpr int kSetups = 3;
constexpr int kColdSetups = 9;


/// Closed-loop clients on their own threads. Each runs body(client,
/// start, log) from a common start once all are ready and returns its op
/// count; `log` collects its ops' gate failures. Returns the summed
/// per-client throughput (ops / that client's loop time).
template <typename Body>
double run_clients(unsigned clients, std::vector<Result>& logs, Body body) {
  logs.assign(clients, Result{});
  std::vector<double> rate(clients, 0.0);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point t0;
  std::vector<std::thread> pool;
  for (unsigned c = 0; c < clients; ++c)
    pool.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      try {
        const std::uint64_t ops = body(c, t0, logs[c]);
        rate[c] = ratio(static_cast<double>(ops), ms_since(t0) / 1e3);
      } catch (const std::exception& e) {
        logs[c].error(std::string("client aborted: ") + e.what());
        ++logs[c].failed;
      }
    });
  while (ready.load() < clients) std::this_thread::yield();
  t0 = Clock::now();
  go.store(true);
  for (auto& t : pool) t.join();
  return sum(rate);
}

/// Clients of the in-process workloads; one per vCPU of the 4-core
/// reference box. The box's per-core speed drifts by up to 2x over
/// seconds, independently per core, so several clients also average that
/// drift instead of sampling one core.
constexpr unsigned kClients = 4;

bool past(Clock::time_point t0, double seconds) {
  return ms_since(t0) >= seconds * 1e3;
}

/// The end-to-end metrics, timings rescaled to the reference host speed;
/// the raw values go to the provenance line.
void report_e2e(Result& res, const Setup& setup, const std::vector<double>& op_ms,
                double ops_per_s, const HostSpeed& speed, double peak_rss_mb) {
  const double scale = speed.scale();
  const double setup_scale = setup.speed.scale();
  res.set("setup_s", setup.raw_s * setup_scale, "s");
  res.set("op_ms_p50", quantile(op_ms, 0.5) * scale, "ms");
  res.set("op_ms_p90", quantile(op_ms, 0.9) * scale, "ms");
  res.set("ops_per_s", ratio(ops_per_s, scale), "1/s");
  res.set("peak_rss_mb", peak_rss_mb, "MB");
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  res.info["op_samples"] = std::to_string(op_ms.size());
  res.info["raw_setup_s"] = num(setup.raw_s);
  res.info["raw_op_ms_p50"] = num(quantile(op_ms, 0.5));
  res.info["raw_op_ms_p90"] = num(quantile(op_ms, 0.9));
  res.info["raw_ops_per_s"] = num(ops_per_s);
  res.info["ref_loop_ms"] = num(speed.loop_ms());
  res.info["setup_ref_loop_ms"] = num(setup.speed.loop_ms());
}

/// Per-client state of plan-cold.
struct ColdClient {
  ColdState st;
  std::vector<double> op_ms;
  std::vector<svc::PlanResponse> resps;   // traced runs
  std::vector<opt::CaptureRun> caps;      // first iteration's (traced)
  std::vector<std::string> digests;
  std::uint64_t store_hits = 0, store_needs = 0;
};

void run_plan_cold(const Args& a, const fs::path& dir, Result& res) {
  Setup setup;
  timed_setups(setup, kColdSetups, [&](int) { cold_setup(dir / "setup"); },
               [](int) {});
  Tracer tr(a.trace);
  HostSpeed speed;
  std::vector<ColdClient> cl(kClients);
  std::vector<Result> logs;
  const double ops_per_s = run_clients(
      kClients, logs,
      [&](unsigned c, Clock::time_point t0, Result& log) -> std::uint64_t {
        ColdClient& me = cl[c];
        const fs::path cdir = dir / ("client" + std::to_string(c));
        double debt = 0.0;
        for (std::uint64_t i = 0; i == 0 || !past(t0, a.seconds); ++i) {
          const std::uint64_t req = c * 1000000 + i;
          double ms = 0.0;
          std::vector<AppOutcome> outcomes =
              cold_iteration(cdir / "iter", req, tr, me.st, log, &ms);
          me.op_ms.push_back(ms);
          speed.busy(debt, ms);
          if (!a.trace) continue;
          // Traced run: after the op, the same plans as separate layer
          // calls on a second empty store; each must be identical() to
          // the service's.
          for (AppOutcome& o : outcomes) {
            TempDir dec_dir(cdir / "decomposed");
            const auto store = open_store(dec_dir.path);
            const core::Experiment exp = core::scenarios().make_experiment(
                o.app, 2u, core::ProfilerMode::kTraceReplay, store);
            Decomposed d = decompose(exp, *store, tr, req, log);
            if (!d.plan.identical(o.resp.assignment))
              log.error(o.app +
                        ": decomposed plan is not identical to the service plan");
            // The comp_err formula every run uses must match the library.
            const double lib = 100.0 * opt::compare_expected_vs_simulated(
                                           d.prof, d.plan, o.eval.part)
                                           .max_rel_to_total;
            if (lib != o.eval.comp_err_pct)
              log.error(o.app + ": comp_err formula disagrees with the library");
            me.store_hits += o.resp.store_hits();
            me.store_needs += o.resp.captures.size();
            if (i == 0) {
              for (std::size_t k = 0; k < d.captured.size(); ++k) {
                me.caps.push_back(std::move(d.captured[k]));
                me.digests.push_back(d.digests[k]);
              }
            }
            me.resps.push_back(std::move(o.resp));
          }
        }
        return me.op_ms.size();
      });
  for (const Result& log : logs) res.merge(log);

  // Every client must have simulated the same counts and plans.
  const ColdState& st = cl[0].st;
  std::vector<double> op_ms;
  for (const ColdClient& me : cl) {
    if (me.st.counts.size() != st.counts.size() ||
        me.st.plan_digests != st.plan_digests)
      res.error("clients disagree on plans");
    for (const auto& [app, counts] : me.st.counts)
      if (!(st.counts.count(app) && st.counts.at(app) == counts))
        res.error(app + ": clients disagree on simulated counts");
    op_ms.insert(op_ms.end(), me.op_ms.begin(), me.op_ms.end());
  }
  res.info["plan_digest"] = cold_digest(st);
  for (std::size_t i = 0; i < kApps.size(); ++i) {
    const auto it = st.counts.find(kApps[i]);
    const EvalCounts c = it != st.counts.end() ? it->second : EvalCounts{};
    res.info["misses." + kApps[i]] = std::to_string(c.shared_misses) + "/" +
                                     std::to_string(c.part_misses);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f",
                  ratio(static_cast<double>(c.shared_misses),
                        static_cast<double>(c.part_misses)));
    res.info["app" + std::to_string(i + 1) + "_miss_reduction_x"] = buf;
  }
  double worst = 0.0;
  for (const auto& [app, ce] : st.comp_err) worst = std::max(worst, ce);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", worst);
  res.info["comp_err_pct"] = buf;
  if (!a.trace) {
    report_e2e(res, setup, op_ms, ops_per_s, speed, peak_rss_mb_self());
    return;
  }

  // Runner probe, alone on the machine: capture_runs() of the first
  // application on a 2-worker campaign without a store, against the sum
  // of its single captures.
  double eff = 0.0;
  {
    Scoped probe(tr, "probe.runner", -1, 0);
    const core::Experiment exp = core::scenarios().make_experiment(
        kApps[0], 2u, core::ProfilerMode::kTraceReplay);
    std::vector<double> single;
    for (std::uint32_t r = 0; r < exp.config().profile_runs; ++r) {
      const auto ts = Clock::now();
      exp.capture_single(r);
      single.push_back(ms_since(ts));
    }
    const auto tc = Clock::now();
    const std::vector<opt::CaptureRun> runs = exp.capture_runs();
    eff = ratio(sum(single), ms_since(tc));
    if (runs.size() != single.size())
      res.error("capture_runs returned an unexpected number of runs");
  }
  const CodecRates codec = codec_probe(cl[0].caps, cl[0].digests, tr, res);
  const std::vector<Span> spans = tr.spans();
  std::vector<svc::PlanResponse> resps;
  std::uint64_t store_hits = 0, store_needs = 0;
  for (const ColdClient& me : cl) {
    resps.insert(resps.end(), me.resps.begin(), me.resps.end());
    store_hits += me.store_hits;
    store_needs += me.store_needs;
  }
  Layers l;
  report_decomposed(spans, l);
  report_ops(spans, l);
  report_svc(resps, l);
  l["core.runner.parallel_eff"] = eff;
  l["opt.trace.encode_mb_per_s"] = codec.encode_mb_s;
  l["opt.trace.decode_mb_per_s"] = codec.decode_mb_s;
  l["opt.trace.bytes_per_event"] = codec.bytes_per_event;
  l["opt.store.hit_ratio"] = ratio(static_cast<double>(store_hits),
                                   static_cast<double>(store_needs));
  l["host.ref_loop_ms"] = speed.loop_ms();
  report_layers(l, st, res);
  write_spans(spans, a.spans_out);
}

// ----------------------------------------------------------- plan-warm ----

/// Per-client state of plan-warm.
struct WarmClient {
  std::vector<double> op_ms;
  std::vector<svc::PlanResponse> resps;  // traced runs
  std::string prefix;  // request -> plan_digest over the first two blocks
  std::uint64_t captured = 0;
};

void run_plan_warm(const Args& a, const fs::path& dir, Result& res) {
  const fs::path store_dir = dir / "store";
  Setup setup;
  timed_setups(
      setup, kSetups,
      [&](int) {
        fs::remove_all(store_dir);
        fs::create_directories(store_dir);
        populate_store(store_dir);
      },
      [&](int) { fs::remove_all(store_dir); });

  const auto store = open_store(store_dir);
  Tracer tr(a.trace);
  HostSpeed speed;
  std::vector<WarmClient> cl(kClients);
  std::vector<Result> logs;
  constexpr std::uint64_t kPrefix = 16;
  const double ops_per_s = run_clients(
      kClients, logs,
      [&](unsigned c, Clock::time_point t0, Result& log) -> std::uint64_t {
        WarmClient& me = cl[c];
        // A service per client: requests of different clients never share
        // a sweep, so plan-warm exercises no coalescing.
        svc::PlanningServiceConfig cfg;
        cfg.store = store;
        cfg.jobs = 1;
        svc::PlanningService service(std::move(cfg));
        Gen gen(a.seed * 4 + c);
        std::uint64_t n = 0;
        double debt = 0.0;
        while (n < kPrefix || !past(t0, a.seconds)) {
          for (const Request& rq : warm_block(gen)) {
            ++log.attempted;
            const std::uint64_t req_id = c * 1000000 + n;
            const svc::PlanRequest req = rq.to_plan_request();
            svc::PlanResponse resp;
            {
              const auto tq = Clock::now();
              Scoped root(tr, "request", -1, req_id);
              Scoped s(tr, "svc.plan", root.id(), req_id);
              resp = service.plan(req);
              me.op_ms.push_back(ms_since(tq));
              stage_attrs(s, resp);
            }
            speed.busy(debt, me.op_ms.back());
            if (!resp.ok || !resp.assignment.feasible) {
              ++log.failed;
              log.error(rq.line() + ": " +
                        (resp.ok ? "infeasible plan" : resp.error));
            }
            me.captured += resp.captured();
            if (n < kPrefix)
              me.prefix +=
                  rq.line() + "=" + svc::plan_response_digest(resp) + "\n";
            if (a.trace && resp.ok) {
              // After the op: the same request as separate layer calls.
              core::ExperimentConfig ecfg =
                  core::scenarios()
                      .make_experiment(rq.scenario, 1u,
                                       core::ProfilerMode::kTraceReplay, store)
                      .config();
              ecfg.profile_grid = req.grid;
              ecfg.planner.curvature_eps = *req.curvature_eps;
              const core::Experiment exp(
                  core::scenarios().get(rq.scenario).factory, std::move(ecfg));
              const Decomposed d = decompose(exp, *store, tr, req_id, log);
              if (!d.plan.identical(resp.assignment))
                log.error(rq.line() + ": decomposed plan differs from the service");
              me.resps.push_back(std::move(resp));
            }
            ++n;
          }
        }
        return n;
      });
  for (const Result& log : logs) res.merge(log);
  std::vector<double> op_ms;
  std::string prefix;
  std::vector<svc::PlanResponse> resps;
  for (const WarmClient& me : cl) {
    if (me.captured != 0)
      res.error("plan-warm captured " + std::to_string(me.captured));
    op_ms.insert(op_ms.end(), me.op_ms.begin(), me.op_ms.end());
    resps.insert(resps.end(), me.resps.begin(), me.resps.end());
    prefix += me.prefix;
  }
  res.info["plan_digest"] = hex_digest(prefix);
  if (!a.trace) {
    report_e2e(res, setup, op_ms, ops_per_s, speed, peak_rss_mb_self());
    return;
  }

  // Codec probe over the populated captures.
  std::vector<opt::CaptureRun> caps;
  std::vector<std::string> digests;
  for (const std::string& app : kApps) {
    const core::Experiment exp = core::scenarios().make_experiment(
        app, 1u, core::ProfilerMode::kTraceReplay, store);
    for (std::uint32_t r = 0; r < std::max(1u, exp.config().profile_runs); ++r) {
      auto hit = store->load(exp.trace_digest(r));
      if (!hit) {
        res.error("plan-warm: populated capture missing");
        continue;
      }
      caps.push_back(std::move(*hit));
      digests.push_back(exp.trace_digest(r));
    }
  }
  const CodecRates codec = codec_probe(caps, digests, tr, res);
  const std::vector<Span> spans = tr.spans();
  Layers l;
  report_decomposed(spans, l);
  report_ops(spans, l);
  report_svc(resps, l);
  l["opt.trace.encode_mb_per_s"] = codec.encode_mb_s;
  l["opt.trace.decode_mb_per_s"] = codec.decode_mb_s;
  l["opt.trace.bytes_per_event"] = codec.bytes_per_event;
  std::uint64_t hits = 0, needs = 0;
  for (const auto& r : resps) {
    hits += r.store_hits();
    needs += r.captures.size();
  }
  l["opt.store.hit_ratio"] =
      ratio(static_cast<double>(hits), static_cast<double>(needs));
  l["host.ref_loop_ms"] = speed.loop_ms();
  report_layers(l, ColdState{}, res);
  write_spans(spans, a.spans_out);
}

// ----------------------------------------------------------- serve-mix ----

/// Blocking line client over one TCP connection.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the plan server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{60, 0};  // a hung server fails the run instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() to the plan server failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("plan server closed or timed out");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Value text after `"key": ` (searching from `from`); "" when absent.
std::string json_field(const std::string& s, const std::string& key,
                       std::size_t from = 0) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t p = s.find(pat, from);
  if (p == std::string::npos) return "";
  std::size_t b = p + pat.size();
  if (b < s.size() && s[b] == '"') {
    const std::size_t e = s.find('"', b + 1);
    return s.substr(b + 1, e == std::string::npos ? std::string::npos : e - b - 1);
  }
  std::size_t e = b;
  while (e < s.size() && s[e] != ',' && s[e] != '}' && s[e] != ']') ++e;
  return s.substr(b, e - b);
}

double json_num(const std::string& s, const std::string& key,
                std::size_t from = 0) {
  const std::string v = json_field(s, key, from);
  return v.empty() ? 0.0 : std::strtod(v.c_str(), nullptr);
}

double json_num_in(const std::string& s, const std::string& section,
                   const std::string& key) {
  const std::size_t p = s.find("\"" + section + "\": {");
  return p == std::string::npos ? 0.0 : json_num(s, key, p);
}

/// example_plan_server as a child process: spawned on an ephemeral port
/// (read back through --port-file), stopped with SIGTERM, reaped always.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const fs::path& store,
                const fs::path& run_dir) {
    const fs::path port_file = run_dir / "port.txt";
    const fs::path log = run_dir / "server.log";
    fs::remove(port_file);
    std::vector<std::string> args = {
        bin,           "--trace-dir",  store.string(), "--port",
        "0",           "--port-file",  port_file.string(),
        "--plan-cache", "disk",        "--coalesce-window-ms", "10",
        "--net-workers", "4",          "--jobs", "1",
        // A bounded plan cache keeps the server's memory independent of
        // how many fresh grids a run gets through.
        "--plan-cache-budget-entries", "64"};
    std::vector<char*> argv;
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + bin);
    }
    const auto t0 = Clock::now();
    while (ms_since(t0) < 30000.0) {
      std::ifstream in(port_file);
      unsigned port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<std::uint16_t>(port);
        return;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("plan server exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("plan server did not publish its port");
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// Peak resident set of the server so far (VmHWM), MB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
  }

  /// SIGTERM, then wait; true when the server drained and exited 0.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (ms_since(t0) < 30000.0) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;  // the destructor kills it
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// serve-mix request streams. Each connection runs blocks of 8 requests:
/// 6 from the hot set (8 fixed requests shared by all connections) and 2
/// fresh misses at positions shared by all connections. A miss of block
/// b, slot m uses a distinct subset of one superset grid common to every
/// connection, so concurrent misses of a block merge into one sweep.
struct MixPlan {
  std::vector<Request> hot;
  std::uint64_t seed = 0;

  explicit MixPlan(std::uint64_t s) : seed(s) {
    Gen gen(s);
    for (std::size_t i = 0; i < 8; ++i) {
      Request r;
      r.scenario = kApps[i % 2];
      r.grid = grid_of(gen, sizes_2_to_256(), 8 + gen.below(25));
      r.eps = gen.eps_text();
      r.hot = static_cast<int>(i);
      hot.push_back(std::move(r));
    }
  }

  std::vector<Request> block(std::uint64_t b, unsigned conn) const {
    Gen shared(seed * 1000003 + b);          // same for every connection
    Gen own(seed * 7919 + b * 131 + conn + 1);  // this connection's
    std::vector<std::size_t> pos = {0, 1, 2, 3, 4, 5, 6, 7};
    shared.shuffle(pos);
    std::vector<Request> out(8);
    std::size_t h = b * 3 + conn;
    for (std::size_t i = 0; i < 8; ++i) out[i] = hot[h++ % hot.size()];
    for (std::size_t m = 0; m < 2; ++m) {
      Request r;
      r.scenario = kApps[(b + m) % 2];
      const std::vector<std::uint32_t> superset =
          shared.pick(sizes_2_to_256(), 48);
      r.grid = grid_of(own, superset, 8 + own.below(25));
      r.eps = own.eps_text();
      out[pos[m]] = std::move(r);
    }
    return out;
  }
};

struct Served {
  double rtt_ms = 0.0;
  bool ok = false, cache = false, coalesced = false;
  double capture = 0, profile = 0, plan = 0, plan_cache = 0, total = 0;
};

void run_serve_mix(const Args& a, const fs::path& dir, Result& res) {
  const MixPlan mix(a.seed);
  const fs::path store_dir = dir / "store";
  std::unique_ptr<ServerProcess> server;
  std::vector<std::string> ref;  // in-process plan digests of the hot set

  Setup setup;
  timed_setups(
      setup, kSetups,
      [&](int) {
        fs::remove_all(store_dir);
        fs::create_directories(store_dir);
        populate_store(store_dir);
        {
          // In-process reference answers (plan cache off).
          svc::PlanningServiceConfig cfg;
          cfg.store = open_store(store_dir);
          cfg.jobs = 2;
          svc::PlanningService service(std::move(cfg));
          ref.clear();
          for (const Request& r : mix.hot) {
            const svc::PlanResponse resp = service.plan(r.to_plan_request());
            if (!resp.ok || !resp.assignment.feasible)
              res.error("reference plan failed: " + resp.error);
            ref.push_back(svc::plan_response_digest(resp));
          }
        }
        server = std::make_unique<ServerProcess>(a.server, store_dir, dir);
        Conn c(server->port());
        for (std::size_t i = 0; i < mix.hot.size(); ++i) {
          const std::string resp = c.call(mix.hot[i].line());
          if (json_field(resp, "plan_digest") != ref[i])
            res.error("primed hot request differs from the reference: " +
                      mix.hot[i].line());
        }
      },
      [&](int) {
        if (!server->stop()) res.error("plan server did not exit 0 on SIGTERM");
        server.reset();
        fs::remove_all(store_dir);
      });

  Tracer tr(a.trace);
  HostSpeed speed;
  constexpr unsigned kConns = 4;
  std::vector<std::vector<Served>> served(kConns);
  std::vector<std::string> prefix(kConns);
  std::vector<Result> logs;
  std::atomic<std::uint64_t> req_ids{0};
  const double ops_per_s = run_clients(
      kConns, logs,
      [&](unsigned c, Clock::time_point t0, Result& log) -> std::uint64_t {
        Conn conn(server->port());
        double debt = 0.0;
        for (std::uint64_t b = 0; b == 0 || !past(t0, a.seconds); ++b) {
          for (const Request& rq : mix.block(b, c)) {
            ++log.attempted;
            const std::uint64_t id = req_ids.fetch_add(1);
            const int span = tr.begin("net.request", -1, id);
            const auto tq = Clock::now();
            const std::string resp = conn.call(rq.line());
            Served s;
            s.rtt_ms = ms_since(tq);
            tr.end(span);
            s.ok = json_field(resp, "ok") == "true" &&
                   json_field(resp, "feasible") == "true";
            s.cache = json_field(resp, "plan_source") == "cache";
            s.coalesced = json_field(resp, "sweep") == "coalesced";
            const std::size_t ms = resp.find("\"ms\": {");
            if (ms != std::string::npos) {
              s.capture = json_num(resp, "capture", ms);
              s.profile = json_num(resp, "profile", ms);
              s.plan = json_num(resp, "plan", ms);
              s.plan_cache = json_num(resp, "plan_cache", ms);
              s.total = json_num(resp, "total", ms);
            }
            tr.attr(span, "server_total_ms", s.total);
            tr.attr(span, "capture_ms", s.capture);
            tr.attr(span, "profile_ms", s.profile);
            tr.attr(span, "plan_ms", s.plan);
            tr.attr(span, "plan_cache_ms", s.plan_cache);
            const std::string digest = json_field(resp, "plan_digest");
            if (rq.hot >= 0 && digest != ref[static_cast<std::size_t>(rq.hot)])
              s.ok = false;
            if (json_num(resp, "captured") != 0.0) s.ok = false;
            if (!s.ok) {
              ++log.failed;
              log.error(rq.line() + " -> " + resp.substr(0, 200));
            }
            if (b == 0) prefix[c] += rq.line() + "=" + digest + "\n";
            served[c].push_back(s);
            speed.busy(debt, s.rtt_ms);
          }
        }
        return served[c].size();
      });
  for (const Result& log : logs) res.merge(log);

  std::string stats;
  try {
    Conn c(server->port());
    stats = c.call("stats");
  } catch (const std::exception& e) {
    res.error(std::string("stats: ") + e.what());
  }
  const double rss = server->peak_rss_mb();
  if (!server->stop()) res.error("plan server did not exit 0 on SIGTERM");
  server.reset();
  if (json_num_in(stats, "service", "captured") != 0.0)
    res.error("serve-mix server captured during the run");
  std::string all_prefix;
  for (const auto& p : prefix) all_prefix += p;
  res.info["plan_digest"] = hex_digest(all_prefix);

  std::vector<double> rtt, net_self, lookup;
  std::vector<svc::PlanResponse> computed;  // stage times of the misses
  std::uint64_t cache_hits = 0, coalesced = 0;
  for (const auto& conn : served)
    for (const Served& s : conn) {
      rtt.push_back(s.rtt_ms);
      net_self.push_back(s.rtt_ms - s.total);
      lookup.push_back(s.plan_cache);
      if (s.cache) {
        ++cache_hits;
        continue;
      }
      if (s.coalesced) ++coalesced;
      svc::PlanResponse r;
      r.capture_ms = s.capture;
      r.profile_ms = s.profile;
      r.plan_ms = s.plan;
      r.plan_cache_ms = s.plan_cache;
      r.total_ms = s.total;
      computed.push_back(r);
    }
  if (!a.trace) {
    report_e2e(res, setup, rtt, ops_per_s, speed, rss);
    return;
  }
  const std::vector<Span> spans = tr.spans();
  Layers l;
  report_ops(spans, l);
  // Stage times over plan-cache misses (on a hit every stage but the
  // lookup is 0); the lookup as a mean over all requests (the server
  // prints it to 0.01 ms).
  report_svc(computed, l);
  l["opt.plan_cache.hit_ratio"] =
      ratio(static_cast<double>(cache_hits), static_cast<double>(rtt.size()));
  l["opt.plan_cache.lookup_ms"] =
      ratio(sum(lookup), static_cast<double>(lookup.size()));
  l["opt.plan_cache.writes"] = json_num_in(stats, "plan_cache", "disk_writes");
  const double store_hits = json_num_in(stats, "service", "store_hits");
  l["opt.store.hit_ratio"] =
      ratio(store_hits, store_hits + json_num_in(stats, "service", "captured"));
  l["svc.coalesced_ratio"] = ratio(static_cast<double>(coalesced),
                                   static_cast<double>(computed.size()));
  l["svc.union_points_saved"] =
      json_num_in(stats, "service", "union_points_saved");
  l["net.rtt_ms_p50"] = quantile(rtt, 0.5);
  l["net.rtt_ms_p99"] = quantile(rtt, 0.99);
  l["net.self_ms_p50"] = quantile(net_self, 0.5);
  l["net.shed"] = json_num_in(stats, "net", "shed");
  l["net.deadline_expired"] = json_num_in(stats, "net", "deadline_expired");
  l["host.ref_loop_ms"] = speed.loop_ms();
  report_layers(l, ColdState{}, res);
  write_spans(spans, a.spans_out);
}

void print_result(const Args& a, const Result& res) {
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"nproc\": %u, \"replay_kernel\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"git_sha\": \"%s\"",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, std::thread::hardware_concurrency(),
              opt::to_string(opt::resolve_replay_kernel(opt::ReplayKernel::kAuto)),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, a.git_sha.c_str());
  for (const auto& [k, v] : res.info) std::printf(", \"%s\": \"%s\"", k.c_str(), v.c_str());
  std::printf(", \"errors\": [");
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    std::string e = res.errors[i];
    for (char& ch : e)
      if (ch == '"' || ch == '\\' || ch == '\n') ch = '\'';
    std::printf("%s\"%s\"", i ? ", " : "", e.c_str());
  }
  std::printf("]}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.gate_failures == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, res.attempted)),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& [name, m] = res.metrics[i];
    const double v = std::isfinite(m.first) ? m.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                name.c_str(), v, m.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Result res;
  try {
    TempDir run_dir(a.work_dir / (a.workload + "-" + std::to_string(a.seed) +
                                  "-" + std::to_string(::getpid())));
    if (a.workload == "plan-cold") run_plan_cold(a, run_dir.path, res);
    if (a.workload == "plan-warm") run_plan_warm(a, run_dir.path, res);
    if (a.workload == "serve-mix") run_serve_mix(a, run_dir.path, res);
  } catch (const std::exception& e) {
    res.error(std::string("aborted: ") + e.what());
    ++res.failed;
  }
  print_result(a, res);
  return res.gate_failures == 0 ? 0 : 1;
}
