// aspen_perfbench — the measuring half of perfbench (run.py launches it).
//
// One binary, three modes, each a single SPMD region of 2 ranks:
//
//   setup   the region's first barrier, then exit. Rank 0 writes the
//           CLOCK_MONOTONIC instants of main() entry, region entry and the
//           end of the first barrier, so run.py can time job launch ->
//           end of first barrier (setup_s) and split it.
//   run     the measurement loop: rounds of interleaved short blocks
//           (latency legs, layer probes, GUPS legs, matching solves) until
//           --seconds elapse, with every output checked. Rank 0 writes
//           result.json; with trace=1 every rank also writes the benchmark's
//           own spans (spans.rank<R>.json). Spans are recorded on odd
//           measured rounds only, so one traced run also yields the
//           untraced figures its tracing overhead is taken against.
//   otrace  latency legs only, for a job launched with ASPEN_TRACE_SAMPLE=1:
//           rank 0 writes the steady-clock bounds of each leg so run.py
//           can fold the program's own otrace export per leg.
//
// Workloads pick the conduit; smp runs both ranks as threads of this
// process, the others run as one rank per process under aspen-run (the
// tcp_agg_uring environment is set by run.py).
//
// Usage: aspen_perfbench <mode> <workload> <seed> <seconds> <trace> <outdir>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/gups/gups.hpp"
#include "apps/matching/generators.hpp"
#include "apps/matching/matcher.hpp"
#include "apps/matching/verify.hpp"
#include "core/aspen.hpp"
#include "core/telemetry.hpp"
#include "net/endpoint.hpp"
#include "net/wire.hpp"
#include "shm/ring.hpp"

namespace {

using namespace aspen;
namespace g = aspen::apps::gups;
namespace m = aspen::apps::matching;
using u64 = std::uint64_t;

// ---------------------------------------------------------------------------
// Workloads and fixed sizes
// ---------------------------------------------------------------------------

struct workload {
  std::string_view name;
  gex::conduit conduit;
  /// Ops per latency block. Each block lasts about 0.5-6.5 ms on its
  /// plane: long enough to amortize the clock reads, short enough that a
  /// host hiccup spoils one block rather than a metric.
  std::size_t lat_ops;
};

constexpr workload kWorkloads[] = {
    {"smp", gex::conduit::smp, 4096},
    {"shm", gex::conduit::shm, 4096},
    {"tcp", gex::conduit::tcp, 384},
    {"tcp_agg_uring", gex::conduit::tcp, 384},
};

constexpr int kRanks = 2;
/// GUPS: 2^16 table words per rank, a 512-update window, and one fixed
/// update stream per block on every workload, so the AMO table state after
/// each block is the same on every plane (checked against a serial
/// reference).
constexpr unsigned kTableBitsPerRank = 16;
constexpr u64 kGupsUpdatesPerRank = 4096;
constexpr u64 kGupsWindow = 512;
/// Matching inputs (Fig. 8 analogues) regenerated from the seed.
constexpr m::vid kYoutubeVertices = 4000;
constexpr m::vid kChannelSide = 16;
/// Measured rounds every job runs, even past its time (slow planes and
/// short --seconds still yield samples, traced and untraced).
constexpr std::size_t kMinRounds = 4;
/// Solves per matching block (youtube, channel): the local channel solve
/// is short and dominated by its per-round collectives, so its block
/// averages several.
constexpr std::size_t kSolvesPerBlock[2] = {1, 4};
/// Per-round layer probe iterations.
constexpr std::size_t kProbeIters = 2048;
/// In traced rounds, this many ops of each latency block get inject/wait
/// spans (evenly spaced), whatever the plane's block size.
constexpr std::size_t kTracedPerBlock = 16;
/// Ops per leg in the otrace job (fits the default 16k-record ring).
constexpr std::size_t kOtraceOps = 200;

enum leg : std::size_t {
  leg_put,
  leg_amo,
  leg_amo_nv,
  leg_put_defer,
  leg_rma_futures,
  leg_rma_promises,
  leg_amo_promises,
  leg_rpc_ff,
  leg_match_youtube,
  leg_match_channel,
  kLegCount,
};

constexpr const char* kLegNames[kLegCount] = {
    "put",          "amo",          "amo_nv",       "put_defer",
    "rma_futures",  "rma_promises", "amo_promises", "rpc_ff",
    "match_youtube", "match_channel",
};

constexpr std::size_t kLatLegs = 4;
constexpr std::size_t kGupsLegs = 4;
constexpr g::variant kGupsVariants[kGupsLegs] = {
    g::variant::rma_futures, g::variant::rma_promises,
    g::variant::amo_promises, g::variant::rpc_ff};

constexpr const char* kProbeNames[] = {"progress_idle_ns", "wire_codec_ns",
                                       "shm_ring_ns"};
constexpr std::size_t kProbeCount = std::size(kProbeNames);

u64 now_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<u64>(ts.tv_nsec);
}

u64 mix64(u64 z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Spans: kept per rank thread in memory, written once at region exit.
// ---------------------------------------------------------------------------

struct span_rec {
  const char* name;
  u64 t0;
  u64 t1;
  std::uint32_t parent;  ///< index+1 of the enclosing span, 0 at top level
  u64 op;                ///< id shared by one latency op's spans, else 0
};

struct tracer {
  bool on = false;
  u64 next_op = 0;
  std::vector<span_rec> spans;
  std::vector<std::uint32_t> open;

  std::uint32_t begin(const char* name, u64 op = 0) {
    if (!on) return 0;
    spans.push_back({name, now_ns(), 0, open.empty() ? 0 : open.back(), op});
    const auto id = static_cast<std::uint32_t>(spans.size());
    open.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    if (id == 0) return;
    spans[id - 1].t1 = now_ns();
    open.pop_back();
  }
};

thread_local tracer tr;

struct scoped_span {
  std::uint32_t id;
  explicit scoped_span(const char* name) : id(tr.begin(name)) {}
  ~scoped_span() { tr.end(id); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
};

bool write_spans(const std::string& path, int rank) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"rank\":%d,\"spans\":[", rank);
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const span_rec& s = tr.spans[i];
    std::fprintf(f, "%s\n[\"%s\",%llu,%llu,%u,%llu]", i == 0 ? "" : ",",
                 s.name, static_cast<unsigned long long>(s.t0),
                 static_cast<unsigned long long>(s.t1), s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Per-leg counter and OS accounting, folded job-wide at the end
// ---------------------------------------------------------------------------

struct marks {
  telemetry::snapshot snap;
  u64 stime_us = 0;
  u64 nvcsw = 0;
};

marks take_marks() {
  marks mk;
  mk.snap = telemetry::local_snapshot();
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  mk.stime_us = static_cast<u64>(ru.ru_stime.tv_sec) * 1'000'000ull +
                static_cast<u64>(ru.ru_stime.tv_usec);
  mk.nvcsw = static_cast<u64>(ru.ru_nvcsw);
  return mk;
}

/// Per leg: ops, every telemetry counter, stime_us, nvcsw (flat, so the
/// fold is one broadcast_vector).
constexpr std::size_t kLegFields = 1 + telemetry::kCounterCount + 2;

struct leg_book {
  std::vector<u64> v = std::vector<u64>(kLegCount * kLegFields, 0);

  void add(leg l, u64 ops, const marks& a, const marks& b) {
    u64* row = v.data() + l * kLegFields;
    row[0] += ops;
    for (std::size_t c = 0; c < telemetry::kCounterCount; ++c)
      row[1 + c] += b.snap.counters[c] - a.snap.counters[c];
    row[1 + telemetry::kCounterCount] += b.stime_us - a.stime_us;
    row[2 + telemetry::kCounterCount] += b.nvcsw - a.nvcsw;
  }
};

// ---------------------------------------------------------------------------
// Latency legs: one op in flight, rank 0 -> a word owned by rank 1
// ---------------------------------------------------------------------------

/// Time `n` issue+wait pairs; returns ns/op. In traced rounds
/// kTracedPerBlock of the ops get an inject span around the initiating call
/// and a wait span around .wait(), sharing one op id.
template <class Issue, class Done>
double timed_ops(std::size_t n, const char* inject_name, const char* wait_name,
                 Issue&& issue, Done&& done) {
  const std::size_t every = std::max<std::size_t>(1, n / kTracedPerBlock);
  const u64 t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    if (tr.on && i % every == 0) {
      const u64 op = ++tr.next_op;
      const std::uint32_t a = tr.begin(inject_name, op);
      auto f = issue(i);
      tr.end(a);
      const std::uint32_t b = tr.begin(wait_name, op);
      done(f);
      tr.end(b);
    } else {
      auto f = issue(i);
      done(f);
    }
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
}

struct lat_state {
  global_ptr<u64> put_word;
  global_ptr<u64> count_word;
  global_ptr<u64> done_word;  ///< rank 0 raises it when a solo leg ends
  u64 legs_done = 0;
  u64 put_value = 0;    ///< last value put (seed-derived sequence)
  u64 amo_issued = 0;   ///< fetch_adds issued so far = expected old value
  u64 bad = 0;          ///< ops whose check failed
};

/// Collective: rank 1 allocates the latency target words.
lat_state make_lat_state() {
  lat_state s;
  if (rank_me() == 1) {
    s.put_word = new_<u64>(0);
    s.count_word = new_<u64>(0);
    s.done_word = new_<u64>(0);
  }
  s.put_word = broadcast(s.put_word, 1);
  s.count_word = broadcast(s.count_word, 1);
  s.done_word = broadcast(s.done_word, 1);
  return s;
}

/// Collective: frees make_lat_state's words.
void free_lat_state(const lat_state& s) {
  barrier();
  if (rank_me() == 1) {
    delete_(s.put_word);
    delete_(s.count_word);
    delete_(s.done_word);
  }
}

/// Runs `body` on rank 0 alone while rank 1 keeps calling progress() until
/// rank 0 raises done_word: the target stays attentive and never parks in a
/// barrier's idle wait mid-leg. Returns this rank's marks taken as its part
/// ends.
template <class Body>
marks run_solo(lat_state& s, const atomic_domain<u64>& ad, Body&& body) {
  const u64 epoch = ++s.legs_done;
  if (rank_me() == 0) {
    body();
  } else {
    const std::atomic_ref<u64> done(*s.done_word.local());
    while (done.load(std::memory_order_acquire) < epoch) (void)progress();
  }
  const marks m = take_marks();
  if (rank_me() == 0) ad.store(s.done_word, epoch).wait();
  return m;
}

/// Run latency leg `l` on rank 0; returns ns/op.
double run_lat_leg(leg l, std::size_t n, lat_state& s,
                   const atomic_domain<u64>& ad) {
  switch (l) {
    case leg_put: {
      const u64 base = s.put_value + 1;
      s.put_value = base + n - 1;
      return timed_ops(
          n, "put.inject", "put.wait",
          [&](std::size_t i) {
            return rput(base + i, s.put_word, operation_cx::as_future());
          },
          [](future<>& f) { f.wait(); });
    }
    case leg_put_defer: {
      const u64 base = s.put_value + 1;
      s.put_value = base + n - 1;
      return timed_ops(
          n, "put_defer.inject", "put_defer.wait",
          [&](std::size_t i) {
            return rput(base + i, s.put_word,
                        operation_cx::as_defer_future());
          },
          [](future<>& f) { f.wait(); });
    }
    case leg_amo:
      return timed_ops(
          n, "amo.inject", "amo.wait",
          [&](std::size_t) {
            return ad.fetch_add(s.count_word, 1, operation_cx::as_future());
          },
          [&](future<u64>& f) {
            if (f.wait() != s.amo_issued++) ++s.bad;
          });
    case leg_amo_nv: {
      u64 out = 0;
      return timed_ops(
          n, "amo_nv.inject", "amo_nv.wait",
          [&](std::size_t) {
            return ad.fetch_add_into(s.count_word, 1, &out,
                                     operation_cx::as_future());
          },
          [&](future<>& f) {
            f.wait();
            if (out != s.amo_issued++) ++s.bad;
          });
    }
    default:
      return 0.0;
  }
}

// ---------------------------------------------------------------------------
// GUPS legs (HPCC stream, 512-update window). Untraced rounds run the app's
// own g::run_variant; traced rounds run the copy below, which must stay
// line-for-line the loops of src/apps/gups/gups.cpp with only spans added
// around each batch's issue loop and its completion wait.
// ---------------------------------------------------------------------------

thread_local u64 rpc_applied = 0;

struct gups_state {
  g::params p;
  std::unique_ptr<g::table> rma, amo, rpc;
  u64 ref_checksum = 0;
  u64 identity_checksum = 0;
  u64 blocks = 0;  ///< blocks run on each exact (amo, rpc) table
};

/// Start of `rank`'s slice of the HPCC stream, as gups.cpp's `stream`.
u64 stream_start(const g::params& p, int rank) {
  return g::starts(
      static_cast<std::int64_t>(p.updates_per_rank * static_cast<u64>(rank)));
}

/// A table checksum is the sum of word_hash over its words: independent of
/// order, so ranks fold their slices with allreduce_sum.
u64 word_hash(u64 index, u64 value) noexcept {
  return mix64(index * 0x9E3779B97F4A7C15ull ^ value);
}

u64 table_checksum(g::table& t) {
  const u64 base = t.per_rank() * static_cast<u64>(rank_me());
  const u64* w = t.local_slice();
  u64 acc = 0;
  for (u64 i = 0; i < t.per_rank(); ++i) acc += word_hash(base + i, w[i]);
  return allreduce_sum(acc);
}

/// Serial reference: the table after one block of every rank's stream.
u64 reference_checksum(const gups_state& s, bool apply) {
  const u64 size = u64{1} << s.p.table_bits;
  std::vector<u64> t(size);
  for (u64 i = 0; i < size; ++i) t[i] = i;
  if (apply) {
    for (int r = 0; r < rank_n(); ++r) {
      u64 ran = stream_start(s.p, r);
      for (u64 u = 0; u < s.p.updates_per_rank; ++u) {
        ran = g::next_random(ran);
        t[ran & (size - 1)] ^= ran;
      }
    }
  }
  u64 acc = 0;
  for (u64 i = 0; i < size; ++i) acc += word_hash(i, t[i]);
  return acc;
}

/// g::run_variant's timed region with spans (collective); returns the
/// slowest rank's seconds.
double run_gups_traced(g::variant v, g::table& t, const g::params& p,
                       const atomic_domain<u64>& ad) {
  const u64 mask = t.index_mask();
  const u64 batch = p.batch;
  u64 ran = stream_start(p, rank_me());
  auto next = [&ran] { return ran = g::next_random(ran); };
  std::vector<u64> rans(batch), vals(batch);
  std::vector<global_ptr<u64>> dests(batch);
  barrier();
  const u64 t0 = now_ns();
  switch (v) {
    case g::variant::rma_promises:
      for (u64 done = 0; done < p.updates_per_rank; done += batch) {
        const u64 n = std::min(batch, p.updates_per_rank - done);
        promise<> pg;
        {
          scoped_span sp("gups.issue");
          for (u64 i = 0; i < n; ++i) {
            rans[i] = next();
            dests[i] = t.locate(rans[i] & mask);
            rget(dests[i], &vals[i], 1, operation_cx::as_promise(pg));
          }
        }
        {
          scoped_span sp("gups.finalize");
          pg.finalize().wait();
        }
        promise<> pp;
        {
          scoped_span sp("gups.issue");
          for (u64 i = 0; i < n; ++i)
            rput(vals[i] ^ rans[i], dests[i], operation_cx::as_promise(pp));
        }
        scoped_span sp("gups.finalize");
        pp.finalize().wait();
      }
      break;
    case g::variant::rma_futures:
      for (u64 done = 0; done < p.updates_per_rank; done += batch) {
        const u64 n = std::min(batch, p.updates_per_rank - done);
        future<> fg = make_future();
        {
          scoped_span sp("gups.issue");
          for (u64 i = 0; i < n; ++i) {
            rans[i] = next();
            dests[i] = t.locate(rans[i] & mask);
            fg = when_all(fg, rget(dests[i], &vals[i], 1));
          }
        }
        {
          scoped_span sp("gups.finalize");
          fg.wait();
        }
        future<> fp = make_future();
        {
          scoped_span sp("gups.issue");
          for (u64 i = 0; i < n; ++i)
            fp = when_all(fp, rput(vals[i] ^ rans[i], dests[i]));
        }
        scoped_span sp("gups.finalize");
        fp.wait();
      }
      break;
    case g::variant::amo_promises:
      for (u64 done = 0; done < p.updates_per_rank; done += batch) {
        const u64 n = std::min(batch, p.updates_per_rank - done);
        promise<> pr;
        {
          scoped_span sp("gups.issue");
          for (u64 i = 0; i < n; ++i) {
            const u64 r = next();
            ad.bit_xor(t.locate(r & mask), r, operation_cx::as_promise(pr));
          }
        }
        scoped_span sp("gups.finalize");
        pr.finalize().wait();
      }
      break;
    default: {  // rpc_ff
      rpc_applied = 0;
      barrier();
      {
        scoped_span sp("gups.issue");
        for (u64 u = 0; u < p.updates_per_rank; ++u) {
          const u64 r = next();
          const auto dest = t.locate(r & mask);
          if (dest.where() == rank_me()) {
            *dest.local() ^= r;
            ++rpc_applied;
          } else {
            rpc_ff(dest.where(),
                   [](global_ptr<u64> gp, u64 val) {
                     *gp.local() ^= val;
                     ++rpc_applied;
                   },
                   dest, r);
          }
          if ((u & 0xFF) == 0) (void)progress();
        }
      }
      scoped_span sp("gups.finalize");
      const u64 expected = p.updates_per_rank * static_cast<u64>(rank_n());
      while (allreduce_sum(rpc_applied) < expected) (void)progress();
      break;
    }
  }
  const double local = static_cast<double>(now_ns() - t0) * 1e-9;
  barrier();
  return allreduce_max(local);
}

/// One GUPS block of `v` (collective); returns the slowest rank's seconds.
double run_gups_leg(g::variant v, gups_state& s, const atomic_domain<u64>& ad,
                    bool traced) {
  g::table& t = v == g::variant::amo_promises ? *s.amo
                : v == g::variant::rpc_ff     ? *s.rpc
                                              : *s.rma;
  if (!traced) return g::run_variant(v, t, s.p).seconds;
  return run_gups_traced(v, t, s.p, ad);
}

// ---------------------------------------------------------------------------
// Layer probes (rank 0, in-process, through the public functions)
// ---------------------------------------------------------------------------

struct probes {
  std::vector<std::byte> frame_buf;
  net::decoder dec{1 << 20};
  net::frame frame;
  std::unique_ptr<std::byte[]> ring_mem;
  shm::spsc_ring ring;
  u64 bad = 0;

  probes() {
    const std::size_t cap = shm::spsc_ring::clamp_capacity(1 << 12);
    ring_mem = std::make_unique<std::byte[]>(
        shm::spsc_ring::footprint(cap) + 64);
    void* p = ring_mem.get();
    std::size_t space = shm::spsc_ring::footprint(cap) + 64;
    ring = shm::spsc_ring::create(
        std::align(64, shm::spsc_ring::footprint(cap), p, space), cap);
  }

  /// aspen::progress() with nothing pending.
  double progress_idle() {
    scoped_span sp("probe.progress_idle");
    const u64 t0 = now_ns();
    for (std::size_t i = 0; i < kProbeIters; ++i) (void)progress();
    return static_cast<double>(now_ns() - t0) / kProbeIters;
  }

  /// encode_frame + decoder::feed/try_next of one put-sized am_eager frame.
  double wire_codec() {
    scoped_span sp("probe.wire_codec");
    struct {
      net::eager_body prefix;
      u64 addr;
      u64 value;
    } body{};
    net::frame_header h;
    h.kind = static_cast<std::uint16_t>(net::frame_kind::am_eager);
    h.src = 0;
    const u64 t0 = now_ns();
    for (std::size_t i = 0; i < kProbeIters; ++i) {
      h.seq = i;
      body.value = i;
      frame_buf.clear();
      net::encode_frame(frame_buf, h, &body, sizeof body);
      dec.feed(frame_buf.data(), frame_buf.size());
      if (!dec.try_next(frame) || frame.hdr.seq != i) ++bad;
    }
    return static_cast<double>(now_ns() - t0) / kProbeIters;
  }

  /// spsc_ring::try_push + pop_front of a small record.
  double shm_ring() {
    scoped_span sp("probe.shm_ring");
    u64 rec[4] = {0, 0, 0, 0};
    u64 out[4] = {0, 0, 0, 0};
    const u64 t0 = now_ns();
    for (std::size_t i = 0; i < kProbeIters; ++i) {
      rec[0] = i;
      if (!ring.try_push(rec, sizeof rec)) ++bad;
      ring.pop_front(out);
      if (out[0] != i) ++bad;
    }
    return static_cast<double>(now_ns() - t0) / kProbeIters;
  }
};

// ---------------------------------------------------------------------------
// Matching inputs
// ---------------------------------------------------------------------------

struct match_input {
  const char* name;
  m::dist_graph graph;
  std::vector<m::vid> reference;  ///< solve_sequential, rank 0 only
};

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct args {
  std::string mode;
  const workload* w = nullptr;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
};

struct round_rec {
  bool traced = false;
  double lat_ns[kLatLegs] = {};
  double gups_s[kGupsLegs] = {};
  double solve_s[2] = {};
  double probe_ns[kProbeCount] = {};
};

void json_doubles(std::FILE* f, const char* key, const std::vector<double>& v) {
  std::fprintf(f, "\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i)
    std::fprintf(f, "%s%.17g", i == 0 ? "" : ",", v[i]);
  std::fprintf(f, "]");
}

void run_mode(const args& a) {
  barrier();
  const int me = rank_me();
  tr.on = a.trace;
  const std::uint32_t setup_span = tr.begin("setup");

  atomic_domain<u64> ad(
      {gex::amo_op::fadd, gex::amo_op::bxor, gex::amo_op::store});
  lat_state ls = make_lat_state();
  ls.put_value = mix64(a.seed) >> 8;

  gups_state gs;
  gs.p.table_bits = kTableBitsPerRank + 1;  // 2 ranks
  gs.p.updates_per_rank = kGupsUpdatesPerRank;
  gs.p.batch = kGupsWindow;
  gs.rma = std::make_unique<g::table>(gs.p);
  gs.amo = std::make_unique<g::table>(gs.p);
  gs.rpc = std::make_unique<g::table>(gs.p);

  std::vector<match_input> inputs;
  {
    const u64 ys = mix64(a.seed ^ 0x707B), cs = mix64(a.seed ^ 0xC4A);
    m::csr_graph yt = m::gen_powerlaw(kYoutubeVertices, 3, ys);
    m::csr_graph ch =
        m::gen_channel(kChannelSide, kChannelSide, kChannelSide, cs);
    inputs.push_back({"youtube", m::dist_graph::build(yt), {}});
    inputs.push_back({"channel", m::dist_graph::build(ch), {}});
    if (me == 0) {
      inputs[0].reference = m::solve_sequential(yt);
      inputs[1].reference = m::solve_sequential(ch);
      gs.ref_checksum = reference_checksum(gs, true);
      gs.identity_checksum = reference_checksum(gs, false);
    }
  }
  probes pr;
  leg_book book;
  std::vector<round_rec> rounds;
  u64 failed = 0, attempted = 0;
  u64 youtube_rounds = 0, youtube_gets = 0, youtube_solves = 0;
  std::vector<std::string> errors;
  auto fail = [&](u64 ops, std::string what) {
    failed += ops;
    if (errors.size() < 8) errors.push_back(std::move(what));
  };
  barrier();
  tr.end(setup_span);

  const u64 start = now_ns();
  const u64 deadline = start + static_cast<u64>(a.seconds * 1e9);
  const u64 warmup_end =
      start + static_cast<u64>(std::min(1.0, 0.1 * a.seconds) * 1e9);
  for (std::size_t r = 0;; ++r) {
    const bool go = broadcast(
        me == 0 && (now_ns() < deadline || rounds.size() < kMinRounds), 0);
    if (!go) break;
    const bool measured = broadcast(r >= 1 && now_ns() >= warmup_end, 0);
    round_rec rec;
    rec.traced = a.trace && measured && r % 2 == 1;
    tr.on = rec.traced;
    const std::uint32_t round_span = tr.begin("round");

    // Latency legs, then the probes, each by rank 0 alone.
    for (std::size_t k = 0; k < kLatLegs; ++k) {
      const leg l = static_cast<leg>(k);
      barrier();
      const marks m0 = take_marks();
      const marks m1 = run_solo(ls, ad, [&] {
        scoped_span sp(kLegNames[l]);
        const u64 bad0 = ls.bad;
        rec.lat_ns[k] = run_lat_leg(l, a.w->lat_ops, ls, ad);
        if (ls.bad != bad0)
          fail(ls.bad - bad0, std::string(kLegNames[l]) +
                                  ": fetch_add returned a wrong old value");
      });
      // Only the initiator's counters: rank 1 spins in progress() for as
      // long as the leg lasts, which is not work any op asked for.
      if (measured && me == 0) book.add(l, a.w->lat_ops, m0, m1);
      if (me == 0) {
        attempted += a.w->lat_ops;
        if ((l == leg_put || l == leg_put_defer) &&
            rget(ls.put_word).wait() != ls.put_value)
          fail(a.w->lat_ops, std::string(kLegNames[l]) +
                                 ": target word does not hold the last put");
      }
    }
    barrier();
    (void)run_solo(ls, ad, [&] {
      const u64 bad0 = pr.bad;
      rec.probe_ns[0] = pr.progress_idle();
      rec.probe_ns[1] = pr.wire_codec();
      rec.probe_ns[2] = pr.shm_ring();
      if (pr.bad != bad0) fail(pr.bad - bad0, "layer probe round trip failed");
    });

    // GUPS legs.
    for (std::size_t k = 0; k < kGupsLegs; ++k) {
      const leg l = static_cast<leg>(leg_rma_futures + k);
      const marks m0 = take_marks();
      {
        scoped_span sp(kLegNames[l]);
        rec.gups_s[k] = run_gups_leg(kGupsVariants[k], gs, ad, rec.traced);
      }
      const marks m1 = take_marks();
      if (measured) book.add(l, kGupsUpdatesPerRank, m0, m1);
      attempted += me == 0 ? kGupsUpdatesPerRank * kRanks : 0;
    }
    // Exact tables: odd block counts hold one application of the stream
    // (the serial reference), even counts are back at identity.
    {
      scoped_span sp("check.gups");
      ++gs.blocks;
      const u64 amo_sum = table_checksum(*gs.amo);
      const u64 rpc_sum = table_checksum(*gs.rpc);
      if (me == 0) {
        const u64 want =
            gs.blocks % 2 == 1 ? gs.ref_checksum : gs.identity_checksum;
        if (amo_sum != want)
          fail(kGupsUpdatesPerRank * kRanks,
               "amo_promises table checksum mismatch");
        if (rpc_sum != want)
          fail(kGupsUpdatesPerRank * kRanks, "rpc_ff table checksum mismatch");
      }
    }

    // Matching solves, each checked against solve_sequential. A block's
    // sample is its mean solve time.
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const leg l = static_cast<leg>(leg_match_youtube + k);
      scoped_span sp(kLegNames[l]);
      double seconds = 0;
      for (std::size_t n = 0; n < kSolvesPerBlock[k]; ++n) {
        const marks m0 = take_marks();
        m::solve_stats st;
        std::vector<m::vid> local;
        {
          scoped_span solve("solve");
          local = m::solve_distributed(inputs[k].graph, st);
        }
        const marks m1 = take_marks();
        seconds += st.seconds;
        if (measured) book.add(l, 1, m0, m1);
        if (measured && k == 0) {
          youtube_rounds += static_cast<u64>(st.rounds);
          youtube_gets += allreduce_sum(st.rma_gets);
          ++youtube_solves;
        }
        scoped_span check("check.matching");
        const std::vector<m::vid> full =
            m::gather_mates(inputs[k].graph, local);
        if (me == 0) {
          ++attempted;
          if (!m::same_matching(full, inputs[k].reference))
            fail(1, std::string(inputs[k].name) +
                        ": distributed matching differs from "
                        "solve_sequential");
        }
      }
      rec.solve_s[k] = seconds / static_cast<double>(kSolvesPerBlock[k]);
    }
    tr.end(round_span);
    if (me == 0 && measured) rounds.push_back(rec);
  }
  tr.on = false;

  // The fetch_add target must end at the issued count.
  barrier();
  if (me == 0 && rget(ls.count_word).wait() != ls.amo_issued)
    fail(1, "fetch_add target does not equal the issued count");

  // Fold the per-leg books job-wide on rank 0.
  const std::vector<u64> other = broadcast_vector(book.v, 1);
  if (me == 0)
    for (std::size_t i = 0; i < book.v.size(); ++i) book.v[i] += other[i];
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const long peak_rss_kb = allreduce_max(static_cast<long>(ru.ru_maxrss));

  if (a.trace)
    (void)write_spans(a.out + "/spans.rank" + std::to_string(me) + ".json",
                      me);

  if (me == 0) {
    std::FILE* f = std::fopen((a.out + "/result.json").c_str(), "w");
    if (f == nullptr) std::exit(3);
    const net::endpoint* ep = net::endpoint::instance();
    std::fprintf(f, "{\"workload\":\"%s\",\"ranks\":%d,\"data_plane\":\"%s\","
                    "\"telemetry\":%s,\"lat_ops\":%zu,"
                    "\"gups_updates_per_block\":%llu,",
                 std::string(a.w->name).c_str(), rank_n(),
                 a.w->conduit == gex::conduit::smp || ep == nullptr
                     ? "inproc"
                     : ep->data_plane(),
                 telemetry::compiled_in() ? "true" : "false", a.w->lat_ops,
                 static_cast<unsigned long long>(kGupsUpdatesPerRank * kRanks));
    std::fprintf(f, "\"attempted\":%llu,\"failed\":%llu,\"errors\":[",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < errors.size(); ++i)
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",", errors[i].c_str());
    std::fprintf(f, "],\"amo_checksum\":\"%016llx\",\"peak_rss_kb\":%ld,",
                 static_cast<unsigned long long>(gs.ref_checksum), peak_rss_kb);
    std::fprintf(f, "\"youtube\":{\"solves\":%llu,\"rounds\":%llu,"
                    "\"rma_gets\":%llu},",
                 static_cast<unsigned long long>(youtube_solves),
                 static_cast<unsigned long long>(youtube_rounds),
                 static_cast<unsigned long long>(youtube_gets));
    std::fprintf(f, "\"rounds\":{");
    std::vector<double> col;
    auto emit = [&](const char* key, auto get, bool comma = true) {
      col.clear();
      for (const round_rec& rr : rounds) col.push_back(get(rr));
      json_doubles(f, key, col);
      if (comma) std::fprintf(f, ",");
    };
    emit("traced", [](const round_rec& rr) { return rr.traced ? 1.0 : 0.0; });
    for (std::size_t k = 0; k < kLatLegs; ++k)
      emit(kLegNames[k], [k](const round_rec& rr) { return rr.lat_ns[k]; });
    for (std::size_t k = 0; k < kGupsLegs; ++k)
      emit(kLegNames[leg_rma_futures + k],
           [k](const round_rec& rr) { return rr.gups_s[k]; });
    for (std::size_t k = 0; k < 2; ++k)
      emit(kLegNames[leg_match_youtube + k],
           [k](const round_rec& rr) { return rr.solve_s[k]; });
    for (std::size_t k = 0; k < kProbeCount; ++k)
      emit(kProbeNames[k], [k](const round_rec& rr) { return rr.probe_ns[k]; },
           k + 1 < kProbeCount);
    std::fprintf(f, "},\"legs\":{");
    for (std::size_t l = 0; l < kLegCount; ++l) {
      const u64* row = book.v.data() + l * kLegFields;
      std::fprintf(f, "%s\"%s\":{\"ops\":%llu,\"stime_us\":%llu,"
                      "\"nvcsw\":%llu",
                   l == 0 ? "" : ",", kLegNames[l],
                   static_cast<unsigned long long>(row[0]),
                   static_cast<unsigned long long>(
                       row[1 + telemetry::kCounterCount]),
                   static_cast<unsigned long long>(
                       row[2 + telemetry::kCounterCount]));
      for (std::size_t c = 0; c < telemetry::kCounterCount; ++c)
        std::fprintf(f, ",\"%s\":%llu",
                     telemetry::to_string(static_cast<telemetry::counter>(c)),
                     static_cast<unsigned long long>(row[1 + c]));
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}}\n");
    if (std::fclose(f) != 0) std::exit(3);
  }
  free_lat_state(ls);
}

/// CLOCK_MONOTONIC at main() entry: splits setup_s into exec, bootstrap
/// (runtime and plane wiring before the region body runs) and first barrier.
u64 g_main_ns = 0;

void setup_mode(const args& a) {
  const u64 entered = now_ns();
  barrier();
  const u64 done = now_ns();
  if (rank_me() == 0) {
    std::FILE* f = std::fopen((a.out + "/setup.txt").c_str(), "w");
    if (f == nullptr) std::exit(3);
    std::fprintf(f, "%llu %llu %llu\n",
                 static_cast<unsigned long long>(g_main_ns),
                 static_cast<unsigned long long>(entered),
                 static_cast<unsigned long long>(done));
    if (std::fclose(f) != 0) std::exit(3);
  }
}

/// Latency legs only, for the otrace stage fold (the job runs with
/// ASPEN_TRACE_SAMPLE=1; the endpoint exports each rank's ring at region
/// exit). Rank 0 writes each leg's steady-clock bounds.
void otrace_mode(const args& a) {
  barrier();
  const int me = rank_me();
  atomic_domain<u64> ad(
      {gex::amo_op::fadd, gex::amo_op::bxor, gex::amo_op::store});
  lat_state ls = make_lat_state();
  std::string bounds;
  for (std::size_t k = 0; k < kLatLegs; ++k) {
    barrier();
    (void)run_solo(ls, ad, [&] {
      const u64 t0 = now_ns();
      (void)run_lat_leg(static_cast<leg>(k), kOtraceOps, ls, ad);
      bounds += std::string(kLegNames[k]) + " " + std::to_string(t0) + " " +
                std::to_string(now_ns()) + "\n";
    });
  }
  barrier();
  if (me == 0) {
    std::FILE* f = std::fopen((a.out + "/otrace_legs.txt").c_str(), "w");
    if (f == nullptr) std::exit(3);
    std::fputs(bounds.c_str(), f);
    if (std::fclose(f) != 0 || ls.bad != 0) std::exit(3);
  }
  free_lat_state(ls);
}

int usage() {
  std::fprintf(stderr,
               "usage: aspen_perfbench <setup|run|otrace> <workload> <seed> "
               "<seconds> <trace 0|1> <outdir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  g_main_ns = now_ns();
  if (argc != 7) return usage();
  args a;
  a.mode = argv[1];
  for (const workload& w : kWorkloads)
    if (w.name == argv[2]) a.w = &w;
  a.seed = std::strtoull(argv[3], nullptr, 10);
  a.seconds = std::atof(argv[4]);
  a.trace = std::strcmp(argv[5], "1") == 0;
  a.out = argv[6];
  if (a.w == nullptr || a.seconds <= 0) return usage();
  const bool net = a.w->conduit != gex::conduit::smp;
  if (net != net::endpoint::launched()) {
    std::fprintf(stderr, "aspen_perfbench: workload %s %s run under aspen-run\n",
                 argv[2], net ? "must" : "must not");
    return 2;
  }

  gex::config cfg;
  cfg.transport = a.w->conduit;
  if (a.mode == "setup")
    aspen::spmd(kRanks, cfg, [&] { setup_mode(a); });
  else if (a.mode == "run")
    aspen::spmd(kRanks, cfg, [&] { run_mode(a); });
  else if (a.mode == "otrace")
    aspen::spmd(kRanks, cfg, [&] { otrace_mode(a); });
  else
    return usage();
  return 0;
}
