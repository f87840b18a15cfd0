// Tests for the flag-table parser and the shared flag groups: both value
// forms, the digits-only integer rule (stricter than strtoul), enum
// choices, the --store-l2 tcp:// sugar, shared-prefix flags that must
// never be confused (--store-l2 / --store-l2-dir, --plan-cache /
// --plan-cache-budget-*, --port / --port-file), --port presence, the
// coalesce-window float rule, and the usage errors: an unknown flag, a
// missing or malformed value, a repeat and a value on a bool flag.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"

namespace cms::core {
namespace {

/// parse_flags over `args` (argv[0] supplied); "" on success.
std::string parse(std::vector<const char*> args,
                  std::initializer_list<FlagTable> tables) {
  args.insert(args.begin(), "prog");
  return parse_flags(static_cast<int>(args.size()), args.data(), tables);
}

/// Expect a usage error that names `what`.
void expect_error(std::vector<const char*> args,
                  std::initializer_list<FlagTable> tables,
                  const std::string& what) {
  const std::string err = parse(args, tables);
  EXPECT_NE(err.find(what), std::string::npos)
      << "error '" << err << "' does not name '" << what << "'";
}

/// A campaign-style binary: --jobs, --profiler and --quick.
struct Campaign {
  CampaignFlags flags;
  bool quick = false;
  std::string err;
  explicit Campaign(std::vector<const char*> args, unsigned jobs = 1) {
    flags.jobs = jobs;
    const Flag own[] = {flag("--quick", &quick)};
    err = parse(std::move(args), {flags.table(), own});
  }
};

TEST(Jobs, AcceptsPlainDecimalInBothForms) {
  EXPECT_EQ(Campaign({"--jobs", "4"}).flags.jobs, 4u);
  EXPECT_EQ(Campaign({"--jobs=8"}).flags.jobs, 8u);
  EXPECT_EQ(Campaign({"--jobs", "0"}).flags.jobs, 0u);  // 0 = hardware
  EXPECT_EQ(Campaign({"--jobs=1024"}).flags.jobs, 1024u);
  EXPECT_EQ(Campaign({"--jobs=1024"}).err, "");
}

TEST(Jobs, AbsentFlagKeepsDefault) {
  EXPECT_EQ(Campaign({}).flags.jobs, 1u);
  const Campaign c({"--quick"}, 7);
  EXPECT_EQ(c.err, "");
  EXPECT_EQ(c.flags.jobs, 7u);
  EXPECT_TRUE(c.quick);
}

TEST(Jobs, RejectsStrtoulQuirks) {
  // strtoul accepts all of these; the digits-only rule must not.
  for (const std::vector<const char*>& args :
       std::vector<std::vector<const char*>>{{"--jobs=+5"},
                                             {"--jobs", "+5"},
                                             {"--jobs", " 5"},
                                             {"--jobs=\t5"},
                                             {"--jobs", "-1"},
                                             {"--jobs=0x10"}}) {
    const Campaign c(args);
    EXPECT_NE(c.err.find("bad --jobs value"), std::string::npos) << c.err;
    EXPECT_EQ(c.flags.jobs, 1u);
  }
}

TEST(Jobs, RejectsMalformedAndOutOfRange) {
  EXPECT_NE(Campaign({"--jobs"}).err.find("--jobs needs a value"),
            std::string::npos);
  EXPECT_NE(Campaign({"--jobs", "--quick"}).err.find("not the flag --quick"),
            std::string::npos);
  for (const char* bad :
       {"--jobs=", "--jobs=4x", "--jobs=1025", "--jobs=99999999999999999999"})
    EXPECT_NE(Campaign({bad}).err.find("bad --jobs value"), std::string::npos)
        << bad;
}

TEST(Profiler, AcceptsBothModes) {
  EXPECT_EQ(Campaign({"--profiler", "fullsim"}).flags.profiler,
            ProfilerMode::kFullSim);
  EXPECT_EQ(Campaign({"--profiler=replay"}).flags.profiler,
            ProfilerMode::kTraceReplay);
  EXPECT_EQ(Campaign({"--profiler", "replay"}).flags.profiler,
            ProfilerMode::kTraceReplay);
  EXPECT_EQ(Campaign({}).flags.profiler, ProfilerMode::kFullSim);
}

TEST(Profiler, RejectsUnknownModes) {
  EXPECT_NE(Campaign({"--profiler=warp"}).err.find("bad --profiler value"),
            std::string::npos);
  EXPECT_NE(Campaign({"--profiler"}).err.find("needs a value"),
            std::string::npos);
  // Choices are case-sensitive, like every other enum flag.
  EXPECT_NE(Campaign({"--profiler=REPLAY"}).err.find("bad --profiler value"),
            std::string::npos);
  // The flag list in the message is the help.
  EXPECT_NE(Campaign({"--profiler=replya"}).err.find("fullsim|replay"),
            std::string::npos);
}

TEST(UsageErrors, UnknownFlagsAndTypos) {
  EXPECT_EQ(Campaign({"--quicker"}).err, "unknown flag --quicker");
  EXPECT_EQ(Campaign({"--jobz", "3"}).err, "unknown flag --jobz");
  EXPECT_EQ(Campaign({"--replay-kernel=persize"}).err,
            "unknown flag --replay-kernel");
  NetFlags net;
  expect_error({"--port-fil", "x"}, {net.table()}, "unknown flag --port-fil");
  EXPECT_EQ(Campaign({"stray"}).err, "unexpected argument 'stray'");
}

TEST(UsageErrors, RepeatedFlag) {
  EXPECT_EQ(Campaign({"--jobs", "2", "--jobs=2"}).err, "--jobs given twice");
  EXPECT_EQ(Campaign({"--quick", "--quick"}).err, "--quick given twice");
}

TEST(UsageErrors, BoolFlagTakesNoValue) {
  EXPECT_EQ(Campaign({"--quick=1"}).err, "--quick takes no value");
}

TEST(UsageErrors, ValueThatIsAFlag) {
  StoreFlags store;
  bool quick = false;
  const Flag own[] = {flag("--quick", &quick)};
  expect_error({"--trace-dir", "--quick"}, {store.table(), own},
               "--trace-dir needs a value, not the flag --quick");
  EXPECT_EQ(store.dir, "");
}

TEST(UsageErrors, TrailingValueFlag) {
  // ablation_phased used to drop a trailing `--json` silently.
  std::string json;
  const Flag own[] = {flag("--json", &json)};
  expect_error({"--json"}, {own}, "--json needs a value");
  EXPECT_EQ(parse({"--json", "out.json"}, {own}), "");
  EXPECT_EQ(json, "out.json");
}

TEST(UsageErrors, ExitWithCodeTwoAndTheFlagList) {
  CampaignFlags flags;
  std::vector<const char*> args{"prog", "--jobz", "3"};
  EXPECT_EXIT(parse_flags_or_exit(static_cast<int>(args.size()), args.data(),
                                  {flags.table()}),
              ::testing::ExitedWithCode(2),
              "prog: unknown flag --jobz\nflags:\n  --jobs N in 0..1024\n"
              "  --profiler fullsim\\|replay");
}

TEST(PlanCache, AcceptsAllModes) {
  PlanCacheFlags c;
  EXPECT_EQ(c.mode, PlanCacheMode::kDisk);
  EXPECT_EQ(parse({"--plan-cache", "off"}, {c.table()}), "");
  EXPECT_EQ(c.mode, PlanCacheMode::kOff);
  PlanCacheFlags mem;
  EXPECT_EQ(parse({"--plan-cache=mem"}, {mem.table()}), "");
  EXPECT_EQ(mem.mode, PlanCacheMode::kMemory);
  PlanCacheFlags disk;
  disk.mode = PlanCacheMode::kOff;
  EXPECT_EQ(parse({"--plan-cache", "disk"}, {disk.table()}), "");
  EXPECT_EQ(disk.mode, PlanCacheMode::kDisk);
}

TEST(PlanCache, RejectsBadModesAndKeepsPrefixFlagsApart) {
  PlanCacheFlags c;
  expect_error({"--plan-cache=ram"}, {c.table()}, "bad --plan-cache value");
  expect_error({"--plan-cache"}, {c.table()}, "--plan-cache needs a value");
  // The budget flags share the prefix; they must not be mistaken for the
  // mode flag itself.
  PlanCacheFlags b;
  EXPECT_EQ(parse({"--plan-cache-budget-bytes", "5"}, {b.table()}), "");
  EXPECT_EQ(b.mode, PlanCacheMode::kDisk);
  EXPECT_EQ(b.budget_bytes, 5u);
}

TEST(PlanCache, BudgetsParseAsPlainDecimalU64) {
  PlanCacheFlags c;
  EXPECT_EQ(parse({"--plan-cache-budget-bytes=4096",
                   "--plan-cache-budget-entries", "8"},
                  {c.table()}),
            "");
  EXPECT_EQ(c.budget_bytes, 4096u);
  EXPECT_EQ(c.budget_entries, 8u);
  PlanCacheFlags bad;
  expect_error({"--plan-cache-budget-bytes=64k"}, {bad.table()},
               "bad --plan-cache-budget-bytes value '64k'");
}

TEST(ServiceBudgets, ParseAsPlainDecimalU64) {
  ServiceFlags s;
  EXPECT_EQ(parse({"--service-budget-bytes", "18446744073709551615",
                   "--service-budget-entries=3"},
                  {s.table()}),
            "");
  EXPECT_EQ(s.budget_bytes, kNoLimit);
  EXPECT_EQ(s.budget_entries, 3u);
  ServiceFlags over;
  expect_error({"--service-budget-bytes=18446744073709551616"},
               {over.table()}, "bad --service-budget-bytes value");
}

TEST(StoreL2, AcceptsAllModes) {
  StoreFlags off;
  EXPECT_EQ(parse({"--store-l2", "off"}, {off.table()}), "");
  EXPECT_EQ(off.l2, StoreL2Mode::kOff);
  StoreFlags ro;
  EXPECT_EQ(parse({"--store-l2=ro"}, {ro.table()}), "");
  EXPECT_EQ(ro.l2, StoreL2Mode::kReadOnly);
  StoreFlags rw;
  rw.l2 = StoreL2Mode::kOff;
  EXPECT_EQ(parse({"--store-l2", "rw"}, {rw.table()}), "");
  EXPECT_EQ(rw.l2, StoreL2Mode::kReadWrite);
}

TEST(StoreL2, RejectsBadModesAndKeepsTheDirFlagApart) {
  StoreFlags s;
  expect_error({"--store-l2=readonly"}, {s.table()}, "bad --store-l2 value");
  expect_error({"--store-l2"}, {s.table()}, "--store-l2 needs a value");
  expect_error({"--store-l2=RO"}, {s.table()}, "bad --store-l2 value");
  // The dir flag shares the prefix; it must not be mistaken for the mode
  // flag (nor its directory swallowed as a mode value).
  StoreFlags dir;
  EXPECT_EQ(parse({"--store-l2-dir", "far"}, {dir.table()}), "");
  EXPECT_EQ(dir.l2, StoreL2Mode::kReadWrite);
  EXPECT_EQ(dir.l2_dir, "far");
  StoreFlags both;
  EXPECT_EQ(parse({"--store-l2-dir=far", "--store-l2=ro"}, {both.table()}),
            "");
  EXPECT_EQ(both.l2, StoreL2Mode::kReadOnly);
  EXPECT_EQ(both.l2_dir, "far");
}

TEST(StoreL2Dir, BothFormsAndDefault) {
  StoreFlags eq;
  EXPECT_EQ(parse({"--store-l2-dir=/tmp/far"}, {eq.table()}), "");
  EXPECT_EQ(eq.l2_dir, "/tmp/far");
  EXPECT_EQ(StoreFlags().l2_dir, "");
  StoreFlags missing;
  expect_error({"--store-l2-dir"}, {missing.table()},
               "--store-l2-dir needs a value");
  // The mode flag must not leak its value into the directory.
  StoreFlags mode;
  EXPECT_EQ(parse({"--store-l2", "rw"}, {mode.table()}), "");
  EXPECT_EQ(mode.l2_dir, "");
}

TEST(StoreL2, TcpEndpointImpliesReadWrite) {
  // `--store-l2 tcp://host:port` is the networked far tier in one flag:
  // the value doubles as the target, and kTcp reads and writes it like rw.
  StoreFlags sp;
  sp.l2 = StoreL2Mode::kOff;
  EXPECT_EQ(parse({"--store-l2", "tcp://10.0.0.1:9000"}, {sp.table()}), "");
  EXPECT_EQ(sp.l2, StoreL2Mode::kTcp);
  EXPECT_EQ(sp.l2_target(), "tcp://10.0.0.1:9000");
  StoreFlags eq;
  eq.l2 = StoreL2Mode::kOff;
  EXPECT_EQ(parse({"--store-l2=tcp://h:1"}, {eq.table()}), "");
  EXPECT_EQ(eq.l2, StoreL2Mode::kTcp);
  EXPECT_EQ(eq.l2_target(), "tcp://h:1");
}

std::string l2_target_of(std::vector<const char*> args) {
  StoreFlags s;
  EXPECT_EQ(parse(std::move(args), {s.table()}), "");
  return s.l2_target();
}

TEST(StoreL2Target, DirWinsThenTcpModeValue) {
  // The explicit dir flag (which itself may carry a tcp:// url) always
  // wins; otherwise a tcp:// mode value is the target; otherwise none.
  EXPECT_EQ(l2_target_of({"--store-l2-dir", "far"}), "far");
  EXPECT_EQ(l2_target_of({"--store-l2-dir=tcp://h:1"}), "tcp://h:1");
  EXPECT_EQ(l2_target_of({"--store-l2", "tcp://h:2"}), "tcp://h:2");
  EXPECT_EQ(l2_target_of({"--store-l2-dir", "far", "--store-l2=tcp://h:3"}),
            "far");
  EXPECT_EQ(l2_target_of({"--store-l2", "rw"}), "");  // a mode, not a target
  EXPECT_EQ(l2_target_of({}), "");
}

TEST(Store, TraceModesAndDir) {
  StoreFlags s;
  EXPECT_EQ(parse({"--trace-dir", "d", "--trace=ro"}, {s.table()}), "");
  EXPECT_EQ(s.dir, "d");
  EXPECT_EQ(s.mode, TraceMode::kReadOnly);
  EXPECT_FALSE(s.tiered());
  StoreFlags bad;
  expect_error({"--trace", "readwrite"}, {bad.table()}, "bad --trace value");
}

TEST(Store, LocalTableHasNoFarTier) {
  // Binaries without a far tier declare only --trace-dir and --trace;
  // the far-tier flags are then unknown, not silently dropped.
  StoreFlags s;
  EXPECT_EQ(parse({"--trace-dir=d", "--trace", "rw"}, {s.local_table()}), "");
  EXPECT_EQ(s.dir, "d");
  EXPECT_FALSE(s.tiered());
  expect_error({"--store-l2-dir", "far"}, {s.local_table()},
               "unknown flag --store-l2-dir");
  expect_error({"--store-l2=tcp://h:1"}, {s.local_table()},
               "unknown flag --store-l2");
}

TEST(ServiceClients, AcceptsSaneCountsAndRejectsTheRest) {
  // Every client is a real thread in the benches: a mistyped count is an
  // error, not a 99999-thread army.
  const auto clients_of = [](std::vector<const char*> args, unsigned& n) {
    n = 4;
    const Flag own[] = {flag("--service-clients", &n, 1, kMaxJobs)};
    return parse(std::move(args), {own});
  };
  unsigned n = 0;
  EXPECT_EQ(clients_of({"--service-clients", "8"}, n), "");
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(clients_of({"--service-clients=1"}, n), "");
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(clients_of({"--service-clients=1024"}, n), "");
  EXPECT_EQ(n, 1024u);
  EXPECT_EQ(clients_of({}, n), "");
  EXPECT_EQ(n, 4u);
  for (const char* bad : {"--service-clients=0", "--service-clients=1025",
                          "--service-clients=99999", "--service-clients=8x"}) {
    EXPECT_NE(clients_of({bad}, n).find("bad --service-clients value"),
              std::string::npos)
        << bad;
    EXPECT_EQ(n, 4u);
  }
}

TEST(Port, PresenceIsSocketMode) {
  NetFlags zero;
  EXPECT_EQ(parse({"--port", "0"}, {zero.table()}), "");
  EXPECT_TRUE(zero.socket_mode());
  EXPECT_EQ(zero.port, 0);
  NetFlags eq;
  EXPECT_EQ(parse({"--port=8080"}, {eq.table()}), "");
  EXPECT_TRUE(eq.socket_mode());
  EXPECT_EQ(eq.port, 8080);
  // A shared prefix is NOT the flag (--port-file vs --port).
  NetFlags file;
  EXPECT_EQ(parse({"--port-file", "x"}, {file.table()}), "");
  EXPECT_FALSE(file.socket_mode());
  EXPECT_EQ(file.port_file, "x");
  NetFlags bare;
  expect_error({"--port"}, {bare.table()}, "--port needs a value");
}

TEST(Port, Range) {
  NetFlags big;
  expect_error({"--port=65536"}, {big.table()},
               "bad --port value '65536' (N in 0..65535)");
  EXPECT_FALSE(big.socket_mode());
  NetFlags absent;
  absent.port = 9;
  EXPECT_EQ(parse({}, {absent.table()}), "");
  EXPECT_EQ(absent.port, 9);
}

TEST(NetWorkers, BoundsLikeJobs) {
  NetFlags ok;
  EXPECT_EQ(parse({"--net-workers=32"}, {ok.table()}), "");
  EXPECT_EQ(ok.workers, 32u);
  NetFlags zero;
  expect_error({"--net-workers=0"}, {zero.table()}, "bad --net-workers value");
  EXPECT_EQ(zero.workers, 8u);
  NetFlags big;
  expect_error({"--net-workers=1025"}, {big.table()},
               "bad --net-workers value");
}

TEST(MaxPending, RejectsZero) {
  NetFlags ok;
  EXPECT_EQ(parse({"--max-pending=2"}, {ok.table()}), "");
  EXPECT_EQ(ok.max_pending, 2u);
  NetFlags zero;
  expect_error({"--max-pending=0"}, {zero.table()},
               "bad --max-pending value '0' (N >= 1)");
  EXPECT_EQ(zero.max_pending, 256u);
}

std::string window_of(std::vector<const char*> args, double& ms) {
  const Flag own[] = {coalesce_window_flag(&ms)};
  return parse(std::move(args), {own});
}

TEST(CoalesceWindow, AcceptsFiniteMilliseconds) {
  double ms = 0.0;
  EXPECT_EQ(window_of({"--coalesce-window-ms", "150"}, ms), "");
  EXPECT_DOUBLE_EQ(ms, 150.0);
  EXPECT_EQ(window_of({"--coalesce-window-ms=2.5"}, ms), "");
  EXPECT_DOUBLE_EQ(ms, 2.5);
  EXPECT_EQ(window_of({"--coalesce-window-ms=0"}, ms), "");
  EXPECT_DOUBLE_EQ(ms, 0.0);
  ms = 250.0;
  EXPECT_EQ(window_of({}, ms), "");
  EXPECT_DOUBLE_EQ(ms, 250.0);
}

TEST(CoalesceWindow, RejectsNonFiniteAndAbsurd) {
  for (const char* bad :
       {"--coalesce-window-ms=-1", "--coalesce-window-ms=nan",
        "--coalesce-window-ms=inf", "--coalesce-window-ms=60001",
        "--coalesce-window-ms=5ms", "--coalesce-window-ms="}) {
    double ms = 5.0;
    EXPECT_NE(window_of({bad}, ms).find("bad --coalesce-window-ms value"),
              std::string::npos)
        << bad;
    EXPECT_DOUBLE_EQ(ms, 5.0);
  }
}

TEST(Groups, ThePlanServerLaunchesParse) {
  // The command lines the benches hand to example_plan_server, parsed
  // against the same groups plan_server declares.
  for (const std::vector<const char*>& args :
       std::vector<std::vector<const char*>>{
           {"--trace-dir", "D", "--port", "0", "--port-file", "F",
            "--plan-cache", "disk", "--coalesce-window-ms", "10",
            "--net-workers", "4", "--jobs", "1",
            "--plan-cache-budget-entries", "64"},
           {"--trace-dir", "D", "--trace", "rw", "--plan-cache", "off",
            "--port", "0", "--port-file", "F", "--net-workers", "16",
            "--max-pending", "1024", "--coalesce-window-ms", "250.000000",
            "--jobs", "2"}}) {
    unsigned jobs = 1;
    double window = 0.0;
    StoreFlags store;
    ServiceFlags service;
    PlanCacheFlags cache;
    NetFlags net;
    const Flag own[] = {jobs_flag(&jobs), coalesce_window_flag(&window)};
    EXPECT_EQ(parse(args, {own, store.table(), service.table(), cache.table(),
                           net.table()}),
              "");
    EXPECT_TRUE(net.socket_mode());
    EXPECT_EQ(store.dir, "D");
    EXPECT_EQ(net.port_file, "F");
  }
}

}  // namespace
}  // namespace cms::core
