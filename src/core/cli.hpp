// The one command-line parser of every bench and example. A binary
// declares its flags as a table of rows (name, kind, destination) and
// parse_flags() reads argv against it once. Each row accepts `--f v` and
// `--f=v`. An unknown flag, a missing value, a space-separated value that
// starts with `--`, a malformed or out-of-range value, a repeated flag and
// `--bool=x` are all usage errors: parse_flags_or_exit() prints the error
// and the flag list and exits 2, so a typo never runs the defaults.
//
// The flags several binaries share live here as groups, each filling a
// small struct (campaign, store, plan cache, service budgets, net); a
// binary passes its groups' tables next to its own rows.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "core/profiler_mode.hpp"

namespace cms::opt {
class StoreBackend;
class TraceStore;
}  // namespace cms::opt

namespace cms::core {

/// Hard ceiling on explicit worker counts: far above any real machine,
/// low enough that a mistyped value can't build an absurd pool.
inline constexpr unsigned kMaxJobs = 1024;

/// One `{"name", value}` choice of an enum flag. A name ending in '/'
/// (`tcp://`) matches every value that starts with it.
struct FlagChoice {
  template <class E>
  constexpr FlagChoice(const char* n, E v)
      : name(n), value(static_cast<std::uint64_t>(v)) {}
  const char* name;
  std::uint64_t value;
};

/// One row of a flag table; build it with flag(), which picks the kind
/// from the destination's type.
struct Flag {
  enum class Kind : std::uint8_t { kBool, kU64, kDouble, kString, kEnum };
  const char* name;  // "--jobs"
  Kind kind;
  void* dest;
  /// kU64 and kEnum: stores a parsed value into `dest`'s own type.
  void (*store)(void* dest, std::uint64_t value) = nullptr;
  std::uint64_t lo = 0, hi = 0;              // kU64: inclusive range
  double min = 0.0, max = 0.0;               // kDouble: inclusive range
  std::span<const FlagChoice> choices = {};  // kEnum
  /// Optional: set to the raw value text, so non-null means "given".
  const char** seen = nullptr;
};

using FlagTable = std::span<const Flag>;

/// `--name`, no value.
inline Flag flag(const char* name, bool* dest) {
  return {.name = name, .kind = Flag::Kind::kBool, .dest = dest};
}

/// `--name TEXT`, any text.
inline Flag flag(const char* name, std::string* dest) {
  return {.name = name, .kind = Flag::Kind::kString, .dest = dest};
}

/// `--name X`, a finite number in [min, max].
inline Flag flag(const char* name, double* dest, double min, double max) {
  return {.name = name, .kind = Flag::Kind::kDouble, .dest = dest,
          .min = min, .max = max};
}

/// `--name N`, plain decimal digits in [lo, hi]. strtoull's tolerance for
/// whitespace, a sign or a 0x prefix is exactly what this rejects.
template <std::unsigned_integral T>
Flag flag(const char* name, T* dest, std::uint64_t lo, std::uint64_t hi,
          const char** seen = nullptr) {
  return {.name = name, .kind = Flag::Kind::kU64, .dest = dest,
          .store = [](void* d, std::uint64_t v) {
            *static_cast<T*>(d) = static_cast<T>(v);
          },
          .lo = lo,
          .hi = std::min<std::uint64_t>(hi, std::numeric_limits<T>::max()),
          .seen = seen};
}

/// `--name CHOICE`, one of `choices`.
template <class E>
  requires std::is_enum_v<E>
Flag flag(const char* name, E* dest, std::span<const FlagChoice> choices,
          const char** seen = nullptr) {
  return {.name = name, .kind = Flag::Kind::kEnum, .dest = dest,
          .store = [](void* d, std::uint64_t v) {
            *static_cast<E*>(d) = static_cast<E>(v);
          },
          .choices = choices,
          .seen = seen};
}

inline constexpr std::uint64_t kNoLimit =
    std::numeric_limits<std::uint64_t>::max();

inline constexpr FlagChoice kProfilerModes[] = {
    {"fullsim", ProfilerMode::kFullSim},
    {"replay", ProfilerMode::kTraceReplay}};
inline constexpr FlagChoice kTraceModes[] = {{"off", TraceMode::kOff},
                                             {"ro", TraceMode::kReadOnly},
                                             {"rw", TraceMode::kReadWrite}};
/// `tcp://host:port` names a networked far tier and implies rw.
inline constexpr FlagChoice kStoreL2Modes[] = {
    {"off", StoreL2Mode::kOff},
    {"ro", StoreL2Mode::kReadOnly},
    {"rw", StoreL2Mode::kReadWrite},
    {"tcp://", StoreL2Mode::kTcp}};
inline constexpr FlagChoice kPlanCacheModes[] = {
    {"off", PlanCacheMode::kOff},
    {"mem", PlanCacheMode::kMemory},
    {"disk", PlanCacheMode::kDisk}};

/// Parse argv[1..argc) against the rows of `tables`. Returns "" on
/// success, else a one-line error naming the offending argument (rows
/// parsed before it may already be written). Tests call this directly.
std::string parse_flags(int argc, const char* const* argv,
                        std::initializer_list<FlagTable> tables);

/// parse_flags(); on an error, print it and the flag list to stderr and
/// exit 2. The flag list is the help.
void parse_flags_or_exit(int argc, const char* const* argv,
                         std::initializer_list<FlagTable> tables);

/// `--jobs N`: campaign worker threads, 0..kMaxJobs (0 = hardware
/// concurrency).
inline Flag jobs_flag(unsigned* jobs) {
  return flag("--jobs", jobs, 0, kMaxJobs);
}

/// `--coalesce-window-ms X`: how long a sweep leader holds its union sweep
/// open for concurrent requests to merge into (see
/// svc::PlanningServiceConfig::coalesce_window_ms). Finite ms in
/// [0, 60000]: NaN, inf and absurd typos are rejected.
inline Flag coalesce_window_flag(double* ms) {
  return flag("--coalesce-window-ms", ms, 0.0, 60'000.0);
}

/// --jobs and --profiler: campaign workers, and whether profiles come from
/// one simulation per grid point (`fullsim`) or from trace capture and
/// replay (`replay`, bit-identical, grid-times fewer simulations).
struct CampaignFlags {
  unsigned jobs = 1;
  ProfilerMode profiler = ProfilerMode::kFullSim;

  std::array<Flag, 2> table() {
    return {jobs_flag(&jobs), flag("--profiler", &profiler, kProfilerModes)};
  }
};

/// --trace-dir, --trace, --store-l2-dir and --store-l2: the persistent
/// capture store and its optional far tier.
struct StoreFlags {
  /// Store directory; empty means no store (captures stay in memory).
  std::string dir;
  /// off (ignore the store), ro (serve hits, never write) or rw (write
  /// back misses), so --trace-dir alone gives capture-once behavior.
  TraceMode mode = TraceMode::kReadWrite;
  /// Far tier: a directory or a `tcp://host:port` blob_server endpoint.
  std::string l2_dir;
  /// off, ro (a frozen shared tier), rw (read and write through) or a
  /// `tcp://host:port` endpoint (kTcp): sugar for rw against it.
  StoreL2Mode l2 = StoreL2Mode::kReadWrite;
  const char* l2_arg = nullptr;  // raw --store-l2 value, when given

  /// --trace-dir and --trace only: a store without a far tier.
  std::array<Flag, 2> local_table() {
    return {flag("--trace-dir", &dir), flag("--trace", &mode, kTraceModes)};
  }
  std::array<Flag, 4> table() {
    const std::array<Flag, 2> local = local_table();
    return {local[0], local[1], flag("--store-l2-dir", &l2_dir),
            flag("--store-l2", &l2, kStoreL2Modes, &l2_arg)};
  }

  /// The far-tier target: --store-l2-dir verbatim, else the kTcp
  /// endpoint given to --store-l2, else "".
  std::string l2_target() const {
    if (!l2_dir.empty()) return l2_dir;
    return l2 == StoreL2Mode::kTcp ? l2_arg : "";
  }
  bool tiered() const {
    return !l2_target().empty() && l2 != StoreL2Mode::kOff;
  }
  /// The store backend the flags describe: a DirBackend at `dir`, tiered
  /// over the far target when there is one (read-through with
  /// promote-on-hit; write-through only for l2 rw). Null when `dir` is
  /// empty or `mode` is off. One backend can feed a TraceStore and a
  /// PlanCache, so both kinds of blob share the tiering.
  std::shared_ptr<opt::StoreBackend> open_backend() const;
  /// open_backend() wrapped in a TraceStore (read-only for mode ro).
  std::shared_ptr<opt::TraceStore> open_trace_store() const;
};

/// --plan-cache and its budgets: the planning service's memoized plan
/// cache — off, mem (in-process only) or disk (plus `.cmsplan` entries
/// in the store) — and each tier's LRU budget (0 = unlimited).
struct PlanCacheFlags {
  PlanCacheMode mode = PlanCacheMode::kDisk;
  std::uint64_t budget_bytes = 0;
  std::uint64_t budget_entries = 0;

  std::array<Flag, 3> table() {
    return {flag("--plan-cache", &mode, kPlanCacheModes),
            flag("--plan-cache-budget-bytes", &budget_bytes, 0, kNoLimit),
            flag("--plan-cache-budget-entries", &budget_entries, 0,
                 kNoLimit)};
  }
};

/// --service-budget-bytes / --service-budget-entries: the planning
/// service's trace-store budget (LRU eviction above it; 0 = unlimited).
struct ServiceFlags {
  std::uint64_t budget_bytes = 0;
  std::uint64_t budget_entries = 0;

  std::array<Flag, 2> table() {
    return {flag("--service-budget-bytes", &budget_bytes, 0, kNoLimit),
            flag("--service-budget-entries", &budget_entries, 0, kNoLimit)};
  }
};

/// The socket-server flags. --port N listens on 127.0.0.1:N (0 = an
/// ephemeral port) and its PRESENCE, even `--port 0`, is what switches
/// plan_server into socket mode. --port-file PATH receives the resolved
/// port once the server accepts connections. --net-workers N worker
/// threads (each blocked worker is one request in flight). --max-pending
/// N bounds the admission queue; arrivals beyond it are shed.
struct NetFlags {
  std::uint16_t port = 0;
  const char* port_arg = nullptr;
  std::string port_file;
  unsigned workers = 8;
  std::size_t max_pending = 256;

  bool socket_mode() const { return port_arg != nullptr; }
  std::array<Flag, 4> table() {
    return {flag("--port", &port, 0, 65535, &port_arg),
            flag("--port-file", &port_file),
            flag("--net-workers", &workers, 1, kMaxJobs),
            flag("--max-pending", &max_pending, 1, kNoLimit)};
  }
};

}  // namespace cms::core
