#include "core/telemetry_lat.hpp"

#include <cinttypes>

#include "core/log.hpp"
#include "core/otrace.hpp"
#include "core/telemetry.hpp"

#if ASPEN_TELEMETRY_ENABLED
#include <csignal>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#endif

namespace aspen::telemetry {

namespace {

constexpr const char* kLatStreamNames[] = {
    "rma_put_eager",
    "rma_put_deferred",
    "rma_get_eager",
    "rma_get_deferred",
    "rpc_eager",
    "rpc_deferred",
    "amo_eager",
    "amo_deferred",
    "whenall_eager",
    "whenall_deferred",
    "wire_delivery",
    "progress_gap",
    "sendq_residency",
    "shm_delivery",
    "agg_batch_fill",
};
static_assert(std::size(kLatStreamNames) == kLatStreamCount,
              "latency stream name table out of sync with the enum");

constexpr const char* kOpClassNames[] = {
    "rma_put", "rma_get", "rpc", "amo", "when_all",
};
static_assert(std::size(kOpClassNames) == kOpClassCount,
              "op_class name table out of sync with the enum");

// Same serialization-key discipline as the counter names: the sidecar
// parser looks streams up by name, so a duplicate or malformed entry would
// silently alias two histograms.
constexpr bool lat_names_well_formed() {
  for (std::size_t i = 0; i < kLatStreamCount; ++i) {
    const char* a = kLatStreamNames[i];
    if (a == nullptr || a[0] == '\0') return false;
    for (const char* p = a; *p != '\0'; ++p)
      if (!((*p >= 'a' && *p <= 'z') || (*p >= '0' && *p <= '9') ||
            *p == '_'))
        return false;
    for (std::size_t j = i + 1; j < kLatStreamCount; ++j) {
      const char* b = kLatStreamNames[j];
      std::size_t k = 0;
      while (a[k] != '\0' && a[k] == b[k]) ++k;
      if (a[k] == b[k]) return false;  // both '\0': identical strings
    }
  }
  return true;
}
static_assert(lat_names_well_formed(),
              "latency stream names must be unique, non-empty snake_case");

// The op-class x disposition grid must line up with the enum prefix:
// stream_of() is pure index arithmetic.
static_assert(stream_of(op_class::rma_put, disposition::eager) ==
              lat_stream::rma_put_eager);
static_assert(stream_of(op_class::when_all, disposition::deferred) ==
              lat_stream::whenall_deferred);
static_assert(2 * kOpClassCount ==
              static_cast<std::size_t>(lat_stream::wire_delivery));

}  // namespace

const char* to_string(lat_stream s) noexcept {
  return kLatStreamNames[static_cast<std::size_t>(s)];
}

const char* to_string(op_class c) noexcept {
  return kOpClassNames[static_cast<std::size_t>(c)];
}

namespace watchdog {

#if ASPEN_TELEMETRY_ENABLED

namespace {

struct pending_op {
  op_class cls;
  int rank;               ///< initiating rank (TLS rank at track time)
  std::uint64_t start_ns; ///< the op's issue stamp (detail::trace_now_ns())
};

/// threshold_ns before ASPEN_WATCHDOG_MS (or configure()) resolved it.
constexpr std::uint64_t kUnresolved = ~std::uint64_t{0};

struct wd_state {
  std::mutex mu;
  /// 0 = disarmed. Atomic so the hot path and the signal handler read it
  /// without locking.
  std::atomic<std::uint64_t> threshold_ns{kUnresolved};
  // Pending-op registry (guarded by mu). Ordered map: ids are issued
  // monotonically, so begin() per rank scan finds the oldest fast enough
  // for a throttled check. pending_n mirrors its size for signal_report.
  std::uint64_t next_id = 1;
  std::map<std::uint64_t, pending_op> pending;
  std::atomic<std::uint64_t> pending_n{0};
  /// Latest progress() timestamp of any rank (only kept while armed).
  std::atomic<std::uint64_t> last_progress_ns{0};
  transport_probe probe;  ///< guarded by mu
  std::atomic<int> reports{0};
  /// 0 healthy, 1 stall episode active, 2 recovered (health_state()).
  std::atomic<int> health{0};
};

/// Leaked like every telemetry registry: checks can run during static
/// destruction (a final progress drain in an atexit path).
wd_state& st() noexcept {
  static wd_state* s = new wd_state;
  return *s;
}

/// SIGUSR2 -> full report at the next check. sig_atomic_t, written from
/// the handler and consumed with a plain read+clear in maybe_check.
volatile sig_atomic_t g_report_requested = 0;

struct wd_tls {
  int rank = 0;
  std::uint64_t last_progress_ns = 0;
  std::uint64_t next_check_ns = 0;
  bool in_stall = false;  ///< one report per stall episode
};

wd_tls& tls() noexcept {
  static thread_local wd_tls t;
  return t;
}

std::uint64_t env_threshold_ns() noexcept {
  const char* v = std::getenv("ASPEN_WATCHDOG_MS");
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const unsigned long long ms = std::strtoull(v, &end, 10);
  if (end != v && *end == '\0') return ms * 1'000'000u;
  aspen::log(log_level::warn,
             "watchdog: ignoring unparsable ASPEN_WATCHDOG_MS=\"%s\"", v);
  return 0;
}

/// The threshold in ns (0 = disarmed), parsing ASPEN_WATCHDOG_MS on first
/// use unless configure() came first.
std::uint64_t threshold_ns() noexcept {
  std::atomic<std::uint64_t>& th = st().threshold_ns;
  std::uint64_t v = th.load(std::memory_order_relaxed);
  if (v == kUnresolved) {
    (void)th.compare_exchange_strong(v, env_threshold_ns(),
                                     std::memory_order_relaxed);
    v = th.load(std::memory_order_relaxed);
  }
  return v;
}

/// Write one report into the flight-recorder dump. Called with `mu` NOT
/// held (the transport probe takes the endpoint's peer locks).
void write_report(const report& r) {
  otrace::dump(r);
  st().reports.fetch_add(1, std::memory_order_relaxed);
  aspen::log(log_level::error,
             "watchdog: rank %d %s (oldest op %" PRIu64 " ms, gap %" PRIu64
             " ms, %" PRIu64 " pending) -> %s",
             r.rank, r.reason, r.oldest_op_age_ms, r.progress_gap_ms,
             r.pending_ops,
             otrace::dump_path(otrace::dump_base(), r.rank).c_str());
}

void maybe_check(std::uint64_t now_ns, std::uint64_t prev_progress_ns) {
  wd_state& s = st();
  wd_tls& t = tls();
  const bool forced = g_report_requested != 0;
  // Time-throttle: at most one full scan per threshold/4 (>= 1ms).
  if (now_ns < t.next_check_ns && !forced) return;
  const std::uint64_t threshold = threshold_ns();
  if (threshold == 0 && !forced) return;

  report r;
  r.rank = t.rank;
  r.threshold_ms = threshold / 1'000'000u;
  r.full = true;
  r.detected_at_ns = now_ns;
  std::uint64_t oldest_age = 0;
  transport_probe probe;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    for (const auto& [id, op] : s.pending) {
      if (op.rank != t.rank) continue;
      ++r.pending_ops;
      const std::uint64_t age =
          now_ns > op.start_ns ? now_ns - op.start_ns : 0;
      if (age > oldest_age) {
        oldest_age = age;
        r.oldest_op_class = to_string(op.cls);
      }
    }
    probe = s.probe;
  }
  r.oldest_op_age_ms = oldest_age / 1'000'000u;
  std::uint64_t step = threshold / 4;
  if (step < 1'000'000u) step = 1'000'000u;
  t.next_check_ns = now_ns + step;

  otrace::install_handlers();

  const std::uint64_t gap =
      prev_progress_ns != 0 && now_ns > prev_progress_ns
          ? now_ns - prev_progress_ns
          : 0;
  r.progress_gap_ms = gap / 1'000'000u;
  if (forced) g_report_requested = 0;

  transport_status ts;
  const char* reason = nullptr;
  if (threshold == 0) {
    // Disarmed: only a forced report gets here.
  } else if (oldest_age > threshold) {
    reason = "oldest_op";
  } else if (r.pending_ops > 0 && gap > threshold) {
    // A long progress gap is only a stall when work was actually waiting;
    // an idle rank between regions is not starved.
    reason = "progress_gap";
  }
  if (probe) {
    ts = probe();
    r.transport = &ts;
    if (reason == nullptr && threshold != 0 && ts.valid &&
        ts.oldest_sendq_age_ns > threshold) {
      reason = "sendq_stall";
    }
  }

  if (reason == nullptr && !forced) {
    if (t.in_stall) s.health.store(2, std::memory_order_relaxed);
    t.in_stall = false;  // healthy: arm the next episode
    return;
  }
  if (forced) {
    r.reason = "signal";
    r.state = s.health.load(std::memory_order_relaxed);
    write_report(r);
    return;
  }
  if (t.in_stall) return;  // already reported this episode
  t.in_stall = true;
  s.health.store(1, std::memory_order_relaxed);
  r.reason = reason;
  r.state = 1;
  write_report(r);
}

}  // namespace

void configure(std::uint64_t threshold_ms) noexcept {
  st().threshold_ns.store(threshold_ms * 1'000'000u,
                          std::memory_order_relaxed);
}

bool enabled() noexcept { return threshold_ns() != 0; }

std::uint64_t threshold_ms() noexcept { return threshold_ns() / 1'000'000u; }

void set_thread_rank(int rank) noexcept {
  tls().rank = rank < 0 ? 0 : rank;
}

std::uint64_t track_op(op_class cls, std::uint64_t issue_ns) noexcept {
  if (!enabled()) return 0;
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  const std::uint64_t id = s.next_id++;
  s.pending.emplace(id, pending_op{cls, tls().rank, issue_ns});
  s.pending_n.store(s.pending.size(), std::memory_order_relaxed);
  return id;
}

void complete_op(std::uint64_t id) noexcept {
  if (id == 0) return;
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.pending.erase(id);
  s.pending_n.store(s.pending.size(), std::memory_order_relaxed);
}

void note_progress(std::uint64_t now_ns) noexcept {
  wd_tls& t = tls();
  const std::uint64_t prev = t.last_progress_ns;
  t.last_progress_ns = now_ns;
  const bool armed = enabled();
  if (armed) st().last_progress_ns.store(now_ns, std::memory_order_relaxed);
  if (armed || g_report_requested != 0) maybe_check(now_ns, prev);
}

void poll_check() noexcept {
  if (!enabled() && g_report_requested == 0) return;
  const std::uint64_t now = detail::trace_now_ns();
  maybe_check(now, tls().last_progress_ns);
}

void request_report() noexcept { g_report_requested = 1; }

report signal_report(const char* reason) noexcept {
  wd_state& s = st();
  report r;
  r.reason = reason;
  const std::uint64_t th = s.threshold_ns.load(std::memory_order_relaxed);
  r.threshold_ms = th == kUnresolved ? 0 : th / 1'000'000u;
  r.pending_ops = s.pending_n.load(std::memory_order_relaxed);
  // last != 0 means note_progress already ran the clock (its epoch static
  // is initialized), so reading it here takes no first-use guard.
  const std::uint64_t last = s.last_progress_ns.load(std::memory_order_relaxed);
  if (last != 0) {
    const std::uint64_t now = detail::trace_now_ns();
    if (now > last) r.progress_gap_ms = (now - last) / 1'000'000u;
  }
  r.state = s.health.load(std::memory_order_relaxed);
  return r;
}

void set_transport_probe(transport_probe probe) {
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.probe = std::move(probe);
}

int reports_written() noexcept {
  return st().reports.load(std::memory_order_relaxed);
}

int health_state() noexcept {
  return st().health.load(std::memory_order_relaxed);
}

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace watchdog

}  // namespace aspen::telemetry
