#include "core/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "opt/net_backend.hpp"
#include "opt/trace_store.hpp"

namespace cms::core {

namespace {

using Kind = Flag::Kind;

bool matches(const FlagChoice& c, std::string_view v) {
  const std::string_view name = c.name;
  return name.ends_with('/') ? v.starts_with(name) : v == name;
}

/// What a row accepts, for error messages and the flag list.
std::string accepts(const Flag& f) {
  switch (f.kind) {
    case Kind::kBool:
      return {};
    case Kind::kString:
      return "TEXT";
    case Kind::kU64:
      if (f.hi != kNoLimit)
        return "N in " + std::to_string(f.lo) + ".." + std::to_string(f.hi);
      return f.lo == 0 ? "N" : "N >= " + std::to_string(f.lo);
    case Kind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "X in %g..%g", f.min, f.max);
      return buf;
    }
    case Kind::kEnum: {
      std::string out;
      for (const FlagChoice& c : f.choices) {
        if (!out.empty()) out += '|';
        out += c.name;
        if (std::string_view(c.name).ends_with('/')) out += "...";
      }
      return out;
    }
  }
  return {};
}

/// Check `v` against row `f` and store it; returns an error or "".
std::string assign(const Flag& f, const char* v) {
  bool ok = false;
  switch (f.kind) {
    case Kind::kBool:
      break;
    case Kind::kString:
      *static_cast<std::string*>(f.dest) = v;
      return {};
    case Kind::kU64: {
      ok = *v != '\0';
      for (const char* p = v; *p != '\0'; ++p)
        ok = ok && *p >= '0' && *p <= '9';
      errno = 0;
      const unsigned long long n = ok ? std::strtoull(v, nullptr, 10) : 0;
      // An overflowing all-digits value saturates silently in strtoull.
      ok = ok && errno != ERANGE && n >= f.lo && n <= f.hi;
      if (ok) f.store(f.dest, n);
      break;
    }
    case Kind::kDouble: {
      char* end = nullptr;
      const double x = std::strtod(v, &end);
      // !(x >= min) also catches NaN; the upper bound catches inf.
      ok = *v != '\0' && *end == '\0' && x >= f.min && x <= f.max;
      if (ok) *static_cast<double*>(f.dest) = x;
      break;
    }
    case Kind::kEnum:
      for (const FlagChoice& c : f.choices) {
        if (!matches(c, v)) continue;
        f.store(f.dest, c.value);
        ok = true;
        break;
      }
      break;
  }
  if (ok) return {};
  return "bad " + std::string(f.name) + " value '" + v + "' (" + accepts(f) +
         ")";
}

}  // namespace

std::string parse_flags(int argc, const char* const* argv,
                        std::initializer_list<FlagTable> tables) {
  std::vector<const Flag*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--"))
      return "unexpected argument '" + std::string(arg) + "'";
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const Flag* f = nullptr;
    for (const FlagTable& t : tables)
      for (const Flag& row : t)
        if (name == row.name) f = &row;
    if (f == nullptr) return "unknown flag " + name;
    if (std::find(given.begin(), given.end(), f) != given.end())
      return name + " given twice";
    given.push_back(f);

    const char* value = eq == std::string_view::npos ? nullptr
                                                     : argv[i] + eq + 1;
    if (f->kind == Kind::kBool) {
      if (value != nullptr) return name + " takes no value";
      *static_cast<bool*>(f->dest) = true;
      continue;
    }
    if (value == nullptr) {
      if (i + 1 == argc) return name + " needs a value (" + accepts(*f) + ")";
      value = argv[++i];
      if (std::strncmp(value, "--", 2) == 0)
        return name + " needs a value, not the flag " + value;
    }
    if (std::string err = assign(*f, value); !err.empty()) return err;
    if (f->seen != nullptr) *f->seen = value;
  }
  return {};
}

void parse_flags_or_exit(int argc, const char* const* argv,
                         std::initializer_list<FlagTable> tables) {
  const std::string err = parse_flags(argc, argv, tables);
  if (err.empty()) return;
  const char* slash = std::strrchr(argv[0], '/');
  std::fprintf(stderr, "%s: %s\nflags:%s\n",
               slash != nullptr ? slash + 1 : argv[0], err.c_str(),
               tables.size() == 0 ? " none" : "");
  for (const FlagTable& t : tables)
    for (const Flag& f : t)
      std::fprintf(stderr, "  %s%s%s\n", f.name,
                   f.kind == Kind::kBool ? "" : " ", accepts(f).c_str());
  std::exit(2);
}

std::shared_ptr<opt::StoreBackend> StoreFlags::open_backend() const {
  if (dir.empty() || mode == TraceMode::kOff) return nullptr;
  std::shared_ptr<opt::StoreBackend> l1 = std::make_shared<opt::DirBackend>(
      dir, /*create=*/mode != TraceMode::kReadOnly);
  if (!tiered()) return l1;
  const std::string target = l2_target();
  opt::TieredBackend::Config cfg;
  cfg.l1 = std::move(l1);
  if (opt::is_tcp_endpoint(target)) {
    // Networked far tier: a blob_server daemon on the other end. The
    // same TieredBackend degradation contract holds — any transport
    // failure is a logged L1-only miss, never an error.
    cfg.l2 = std::make_shared<opt::NetBackend>(target);
  } else {
    // A read-only L2 is a frozen shared tier: never create, never write.
    cfg.l2 = std::make_shared<opt::DirBackend>(
        target, /*create=*/l2 != StoreL2Mode::kReadOnly);
  }
  cfg.l2_writable = l2 != StoreL2Mode::kReadOnly;
  // Promotion writes into L1, which a read-only store must not do.
  cfg.promote = mode != TraceMode::kReadOnly;
  return std::make_shared<opt::TieredBackend>(std::move(cfg));
}

std::shared_ptr<opt::TraceStore> StoreFlags::open_trace_store() const {
  std::shared_ptr<opt::StoreBackend> backend = open_backend();
  if (backend == nullptr) return nullptr;
  return std::make_shared<opt::TraceStore>(std::move(backend),
                                           mode == TraceMode::kReadOnly);
}

}  // namespace cms::core
