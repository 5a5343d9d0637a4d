// aspen::otrace — sampled per-operation distributed tracing plus an
// always-on flight recorder.
//
// The counter plane says how many completions took each path and the
// latency plane says how long each path took in aggregate; neither can
// answer "why was *this* operation slow". otrace closes that gap: at
// injection each RMA/RPC/AMO draws a deterministic per-rank sample decision
// (ASPEN_TRACE_SAMPLE=N samples 1-in-N; "1/N" is accepted too; 0/unset is
// off). A sampled op gets a 64-bit trace id
//
//   id = (rank << 48) | local_seq
//
// carried across its entire causal chain: the eager AM frame (wire protocol
// v5 adds a trace word to every am_eager body), the RTS->CTS->DATA
// rendezvous legs (rdzv_body.trace, then keyed by token), shm ring records,
// agg-coalesced sub-frames, remote handler execution (reply AMs inherit the
// id through the execute() scope), and the final cx_state fulfillment —
// eager-inline or deferred through an op_record, including the cross-persona
// LPC hop.
//
// Every hop appends one fixed-size stage record to a process-global
// lock-free ring (ASPEN_TRACE_RING_BYTES, default 1 MiB). The ring is the
// flight recorder: it is never drained during the run, so at any instant it
// holds the most recent stage records — a black box.
//
// One async-signal-safe writer (open/write only) renders the ring as
// Perfetto JSON: an 'X' slice per record plus 's'/'f' flow events chaining
// every cross-rank hop. At region exit the conduit::tcp endpoint writes it
// to "<base>.rank<R>.otrace.json" (merge the per-rank files with
// bench::merge_rank_otraces). A watchdog trip, SIGUSR2 and SIGSEGV/SIGABRT
// write it to "<base>.rank<R>.dump.json" with the watchdog's health report
// as otherData.health — also when sampling is off, with no records — so a
// mid-region dump survives the region-exit export. Timestamps are absolute
// steady-clock nanoseconds corrected by the bootstrap's clock-sync offset,
// so all ranks of one job land on a single monotone timeline.
//
// With ASPEN_TELEMETRY compiled out the whole subsystem compiles to
// nothing: ids are always 0, scopes and notes are empty inlines, and the
// ring is never allocated. The wire still carries the (zero) trace word so
// ON and OFF builds interoperate frame-for-frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/telemetry.hpp"

namespace aspen::otrace {

// ---------------------------------------------------------------------------
// Stage taxonomy — one record per hop of a sampled op's causal chain
// ---------------------------------------------------------------------------

enum class stage : std::uint16_t {
  inject = 1,        ///< op sampled at its injection site (rma/rpc/amo entry)
  am_send,           ///< AM handed to the substrate's send path
  wire_eager,        ///< eager frame queued onto a peer socket
  wire_rts,          ///< rendezvous RTS queued (initiator)
  wire_cts,          ///< RTS processed, CTS queued (target)
  wire_data,         ///< CTS processed, DATA queued (initiator)
  shm_push,          ///< record pushed onto a shared-memory ring
  agg_stage,         ///< frame staged into an aggregation batch
  wire_deliver,      ///< staged AM released in-order to the substrate
  handler_run,       ///< AM handler executed on the target
  lpc_hop,           ///< completion routed cross-persona via LPC
  fulfill_eager,     ///< completion delivered inline at the injection site
  fulfill_deferred,  ///< completion fired through the progress engine
};

/// Stable snake_case stage name (Perfetto slice name / JSON key).
[[nodiscard]] const char* to_string(stage s) noexcept;

/// One decoded flight-recorder record (test/export view of a ring slot).
struct record_view {
  std::uint64_t trace = 0;  ///< trace id, (rank << 48) | seq
  std::uint64_t t_ns = 0;   ///< absolute steady ns, rank-0-normalized
  std::uint64_t aux = 0;    ///< stage-specific (wire edge id; see below)
  stage st = stage::inject;
  std::int16_t rank = -1;   ///< recording rank
  std::uint16_t tag = 0;    ///< recording thread tag (persona/thread)
};

/// The per-rank region-exit export path: "<base>.rank<R>.otrace.json".
[[nodiscard]] std::string export_path(const std::string& base, int rank);

/// The per-rank dump path (watchdog trip, SIGUSR2, crash):
/// "<base>.rank<R>.dump.json".
[[nodiscard]] std::string dump_path(const std::string& base, int rank);

/// Salts XORed onto a rendezvous message's wire edge id so the RTS, CTS and
/// DATA legs bind as three distinct Perfetto flows even though RTS and DATA
/// share one (src, dst, seq). Senders record aux = edge id pre-salted for
/// the *delivery*-bearing stages (wire_eager/shm_push/agg_stage/
/// wire_deliver use aux as-is); the exporter applies the rts/cts salts to
/// the mid-chain stages on both ends.
inline constexpr std::uint64_t kEdgeSaltData = 0x9E3779B97F4A7C15ull;
inline constexpr std::uint64_t kEdgeSaltRts = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kEdgeSaltCts = 0x165667B19E3779F9ull;

#if ASPEN_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Configuration and sampling
// ---------------------------------------------------------------------------

/// Explicit (re)configuration — overrides ASPEN_TRACE_SAMPLE /
/// ASPEN_TRACE_RING_BYTES / the artifact base (kept when `base` is null);
/// sample_n == 0 disables. Used by tests; the environment is parsed lazily
/// on first use otherwise.
void configure(std::uint32_t sample_n, std::uint64_t ring_bytes,
               const char* base) noexcept;

/// sample_n() != 0.
[[nodiscard]] bool enabled() noexcept;
[[nodiscard]] std::uint32_t sample_n() noexcept;

/// Ring capacity in records (rounded down to a power of two).
[[nodiscard]] std::uint64_t ring_capacity() noexcept;

/// The base of the export and dump paths: ASPEN_TELEMETRY_TRACE, else
/// "aspen". Setting ASPEN_TELEMETRY_TRACE without ASPEN_TRACE_SAMPLE
/// samples every op.
[[nodiscard]] const char* dump_base() noexcept;

/// Tag the calling thread with its rank (forwarded from
/// telemetry::set_thread_rank). Seeds this thread's decision stream: the
/// sequence of sample decisions drawn after set_thread_rank(r) is a pure
/// function of r, so runs replay identically.
void set_thread_rank(int rank) noexcept;

/// Reset the calling thread's decision stream to its seed (tests).
void reset_sampling() noexcept;

/// Draw the injection-site sample decision. Returns a fresh trace id, or 0
/// when unsampled/disabled. Counts counter::otrace_sampled on a hit.
[[nodiscard]] std::uint64_t begin_op() noexcept;

/// Append a stage record for an explicit trace id (no-op when 0). Used
/// where the id was captured earlier — op_records, deferred closures, wire
/// decode paths.
void note_id(std::uint64_t id, stage st, std::uint64_t aux = 0) noexcept;

#else  // !ASPEN_TELEMETRY_ENABLED — otrace compiles out entirely.

inline void configure(std::uint32_t, std::uint64_t, const char*) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
[[nodiscard]] inline std::uint32_t sample_n() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t ring_capacity() noexcept { return 0; }
[[nodiscard]] inline const char* dump_base() noexcept { return "aspen"; }
inline void set_thread_rank(int) noexcept {}
inline void reset_sampling() noexcept {}
[[nodiscard]] inline std::uint64_t begin_op() noexcept { return 0; }
inline void note_id(std::uint64_t, stage, std::uint64_t = 0) noexcept {}

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace aspen::otrace

namespace aspen::telemetry {

// ---------------------------------------------------------------------------
// The per-op context — one thread-local feeding every sink
// ---------------------------------------------------------------------------

#if ASPEN_TELEMETRY_ENABLED

/// The op being issued on this thread: its issue stamp and class (the
/// latency histograms, the watchdog) and its trace id (the flight
/// recorder). Every disposition site in cx_state.hpp reads the one
/// thread-local instance, so no class/timestamp/trace parameter threads
/// through the handle_sync/handle_async overloads. Deferred closures and
/// op_records keep a copy taken at injection and consume it when the
/// notification finally fires — possibly on another thread, whose record
/// aggregate() sums anyway.
struct op_ctx {
  std::uint64_t issue_ns = 0;
  std::uint64_t trace = 0;  ///< otrace id (0 = unsampled)
  op_class cls = op_class::rma_put;
  bool active = false;  ///< issue_ns/cls were stamped by an op_scope

  /// Record a stage on this op's trace (no-op, and no call, when
  /// unsampled).
  void note(otrace::stage st) const noexcept {
    if (trace != 0) otrace::note_id(trace, st);
  }

  /// One completion of this op: its fulfill stage and its latency sample
  /// on the (class, disposition) stream.
  void fulfill(disposition d) const noexcept {
    note(d == disposition::eager ? otrace::stage::fulfill_eager
                                 : otrace::stage::fulfill_deferred);
    if (active)
      note_latency(stream_of(cls, d), detail::trace_now_ns() - issue_ns);
  }
  /// A completion fired through the progress engine (queued or remote).
  void fulfill_deferred() const noexcept { fulfill(disposition::deferred); }

  /// Register the op with the stall watchdog (0 when untracked: watchdog
  /// disabled, or no op_scope was active).
  [[nodiscard]] std::uint64_t track() const noexcept {
    return active ? watchdog::track_op(cls, issue_ns) : 0;
  }
};

namespace detail {
[[nodiscard]] inline op_ctx& tls_op() noexcept {
  static thread_local op_ctx o;
  return o;
}
}  // namespace detail

/// The calling thread's context, by value: what a deferred notification
/// captures at injection.
[[nodiscard]] inline op_ctx current_op() noexcept { return detail::tls_op(); }

/// RAII op-issue marker, one per communication entry point. Stamps the
/// issue time and class, and draws the sample decision unless a trace is
/// already active (ops issued from inside a sampled op's handler or
/// completion stay on the enclosing trace), recording inject on a hit.
/// Restores the enclosing context on exit, so an op issued from inside
/// another op's inline completion attributes correctly.
class op_scope {
 public:
  explicit op_scope(op_class cls) noexcept : saved_(detail::tls_op()) {
    op_ctx& o = detail::tls_op();
    o.issue_ns = detail::trace_now_ns();
    o.cls = cls;
    o.active = true;
    join_or_sample(o);
  }
  /// Trace-only form (rpc_ff, which has no local completion): reads no
  /// clock and leaves the enclosing op's stamp and class in place.
  op_scope() noexcept : saved_(detail::tls_op()) {
    join_or_sample(detail::tls_op());
  }
  ~op_scope() { detail::tls_op() = saved_; }
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;

  /// The issue stamp (rpc() echoes it through the target).
  [[nodiscard]] std::uint64_t issue_ns() const noexcept {
    return detail::tls_op().issue_ns;
  }

 private:
  static void join_or_sample(op_ctx& o) noexcept {
    if (o.trace != 0) return;
    o.trace = otrace::begin_op();
    if (o.trace != 0) o.note(otrace::stage::inject);
  }

  op_ctx saved_;
};

/// One eager (inline) completion of the op being issued, counted as
/// cx_eager_taken.
inline void fulfill_eager() noexcept {
  count(counter::cx_eager_taken);
  detail::tls_op().fulfill(disposition::eager);
}

#else  // !ASPEN_TELEMETRY_ENABLED

struct op_ctx {
  void note(otrace::stage) const noexcept {}
  void fulfill_deferred() const noexcept {}
  [[nodiscard]] std::uint64_t track() const noexcept { return 0; }
};

[[nodiscard]] inline op_ctx current_op() noexcept { return {}; }

class op_scope {
 public:
  explicit op_scope(op_class) noexcept {}
  op_scope() noexcept {}
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;
  [[nodiscard]] std::uint64_t issue_ns() const noexcept { return 0; }
};

static_assert(std::is_empty_v<op_ctx> && sizeof(op_scope) == 1,
              "with ASPEN_TELEMETRY off the op context must carry no state");

inline void fulfill_eager() noexcept {}

#endif

}  // namespace aspen::telemetry

namespace aspen::otrace {

#if ASPEN_TELEMETRY_ENABLED

/// The trace id active on this thread (0 none).
[[nodiscard]] inline std::uint64_t current() noexcept {
  return telemetry::detail::tls_op().trace;
}
inline void set_current(std::uint64_t id) noexcept {
  telemetry::detail::tls_op().trace = id;
}

/// Append a stage record for the active trace (no-op when none).
inline void note(stage st, std::uint64_t aux = 0) noexcept {
  note_id(current(), st, aux);
}

/// RAII: set the active trace id, restore the previous on exit. Used by
/// am_message::execute so every AM handler (and any reply it sends) runs
/// under its message's trace.
class scope {
 public:
  explicit scope(std::uint64_t id) noexcept : saved_(current()) {
    set_current(id);
  }
  ~scope() { set_current(saved_); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  std::uint64_t saved_;
};

// ---------------------------------------------------------------------------
// Dump / export
// ---------------------------------------------------------------------------

/// Install the SIGUSR2 dump handler plus SIGSEGV/SIGABRT black-box hooks
/// (crash handlers chain to the previous disposition). Idempotent; no-op
/// unless sampling or the watchdog is armed. SIGUSR2 writes the dump with
/// the lock-free health fields and asks the watchdog for a full report,
/// which a still-progressing rank writes over it at its next check.
void install_handlers() noexcept;

/// The one writer: the ring as Perfetto JSON at `path`, with `health` as
/// otherData.health when non-null. Async-signal-safe (open/write only, no
/// allocation, no locks). Returns false if the file cannot be opened.
bool write_json(const char* path, int rank,
                const telemetry::watchdog::report* health) noexcept;

/// Write dump_path(dump_base(), health.rank) from a normal context (a
/// watchdog trip or a forced report).
void dump(const telemetry::watchdog::report& health) noexcept;

/// The signal handlers' body: the dump for this process's rank with the
/// lock-free health fields. Exposed for tests.
void dump_signal_safe(const char* reason) noexcept;

/// Decode every committed ring slot, oldest first (tests).
[[nodiscard]] std::vector<record_view> snapshot_records();

/// Discard all recorded stages (tests; between spmd regions).
void clear() noexcept;

/// Total records appended so far (dropped-by-wraparound = total - capacity
/// when total exceeds ring_capacity()).
[[nodiscard]] std::uint64_t records_appended() noexcept;

#else  // !ASPEN_TELEMETRY_ENABLED

[[nodiscard]] inline std::uint64_t current() noexcept { return 0; }
inline void set_current(std::uint64_t) noexcept {}
inline void note(stage, std::uint64_t = 0) noexcept {}

class scope {
 public:
  explicit scope(std::uint64_t) noexcept {}
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
};
static_assert(sizeof(scope) == 1,
              "with ASPEN_TELEMETRY off otrace scopes must carry no state");

inline void install_handlers() noexcept {}
inline bool write_json(const char*, int,
                       const telemetry::watchdog::report*) noexcept {
  return false;
}
inline void dump(const telemetry::watchdog::report&) noexcept {}
inline void dump_signal_safe(const char*) noexcept {}
[[nodiscard]] inline std::vector<record_view> snapshot_records() {
  return {};
}
inline void clear() noexcept {}
[[nodiscard]] inline std::uint64_t records_appended() noexcept { return 0; }

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace aspen::otrace
