// aspen::otrace unit tests: deterministic per-rank sampling, trace-id
// structure, flight-recorder ring recording and wraparound, scope nesting,
// the one JSON writer (signal-time dump, health header, export flow-event
// pairing), and the rma entry points feeding the recorder. In-process only
// — the cross-rank causal-chain assertions live in test_net_spmd.cpp
// (OtraceSpmd) under aspen-run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/aspen.hpp"
#include "core/otrace.hpp"

namespace otrace = aspen::otrace;

namespace {

#if ASPEN_TELEMETRY_ENABLED

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// How many flow events in `text` carry flow id `id`.
int flow_events_with_id(const std::string& text, std::uint64_t id) {
  char want[64];
  std::snprintf(want, sizeof want, "\"id\":\"0x%llx\"",
                static_cast<unsigned long long>(id));
  int n = 0;
  for (auto at = text.find(want); at != std::string::npos;
       at = text.find(want, at + 1))
    ++n;
  return n;
}

/// Reset to a known state: sampling 1-in-1, a small ring, fresh decision
/// stream, no active trace, empty recorder.
void arm(std::uint32_t sample_n, const char* base = "otrace_test") {
  otrace::configure(sample_n, 1 << 16, base);
  otrace::set_thread_rank(3);
  otrace::reset_sampling();
  otrace::set_current(0);
  otrace::clear();
}

TEST(Otrace, ArtifactPathShapes) {
  EXPECT_EQ(otrace::export_path("aspen", 0), "aspen.rank0.otrace.json");
  EXPECT_EQ(otrace::export_path("out/run7", 12),
            "out/run7.rank12.otrace.json");
  EXPECT_EQ(otrace::dump_path("aspen", 0), "aspen.rank0.dump.json");
  EXPECT_EQ(otrace::dump_path("out/run7", 12), "out/run7.rank12.dump.json");
}

TEST(Otrace, TraceIdCarriesRankAndMonotoneSeq) {
  arm(1);
  const std::uint64_t a = otrace::begin_op();
  const std::uint64_t b = otrace::begin_op();
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(a >> 48, 3u);
  EXPECT_EQ(b >> 48, 3u);
  EXPECT_EQ((b & 0xFFFFFFFFFFFFull) - (a & 0xFFFFFFFFFFFFull), 1u);
}

TEST(Otrace, SamplingIsDeterministicPerRank) {
  // The decision stream is a pure function of the thread's rank: replaying
  // from the seed must reproduce the exact hit pattern, so two runs of the
  // same program sample the same operations.
  arm(5);
  constexpr int kDraws = 512;
  std::vector<bool> first;
  for (int i = 0; i < kDraws; ++i) first.push_back(otrace::begin_op() != 0);
  otrace::reset_sampling();
  std::vector<bool> second;
  for (int i = 0; i < kDraws; ++i) second.push_back(otrace::begin_op() != 0);
  EXPECT_EQ(first, second);

  // 1-in-5 sampling hits roughly kDraws/5 times — not all, not none.
  int hits = 0;
  for (bool h : first) hits += h ? 1 : 0;
  EXPECT_GT(hits, kDraws / 20);
  EXPECT_LT(hits, kDraws / 2);

  // A different rank seeds a different stream.
  otrace::set_thread_rank(7);
  otrace::reset_sampling();
  std::vector<bool> other;
  for (int i = 0; i < kDraws; ++i) other.push_back(otrace::begin_op() != 0);
  EXPECT_NE(first, other);
  otrace::set_thread_rank(3);
}

TEST(Otrace, SampleEveryOpWhenNIsOne) {
  arm(1);
  for (int i = 0; i < 64; ++i) EXPECT_NE(otrace::begin_op(), 0u);
}

TEST(Otrace, DisabledDrawsNothing) {
  arm(0);
  EXPECT_FALSE(otrace::enabled());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(otrace::begin_op(), 0u);
  // Notes against an explicit id still no-op on id 0.
  otrace::note_id(0, otrace::stage::inject, 1);
  EXPECT_EQ(otrace::records_appended(), 0u);
}

TEST(Otrace, RecorderKeepsStageOrderAndPayload) {
  arm(1);
  const std::uint64_t id = otrace::begin_op();
  ASSERT_NE(id, 0u);
  otrace::note_id(id, otrace::stage::inject);
  otrace::note_id(id, otrace::stage::am_send);
  otrace::note_id(id, otrace::stage::wire_eager, 0xABCD);
  otrace::note_id(id, otrace::stage::fulfill_deferred);
  const auto recs = otrace::snapshot_records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].st, otrace::stage::inject);
  EXPECT_EQ(recs[1].st, otrace::stage::am_send);
  EXPECT_EQ(recs[2].st, otrace::stage::wire_eager);
  EXPECT_EQ(recs[2].aux, 0xABCDu);
  EXPECT_EQ(recs[3].st, otrace::stage::fulfill_deferred);
  for (const auto& r : recs) {
    EXPECT_EQ(r.trace, id);
    EXPECT_EQ(r.rank, 3);
    EXPECT_NE(r.t_ns, 0u);
  }
  // Timestamps never run backwards within one thread's appends.
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_GE(recs[i].t_ns, recs[i - 1].t_ns);
}

TEST(Otrace, CurrentScopeRoutesNotesAndRestores) {
  arm(1);
  {
    otrace::scope s(0x5001);
    EXPECT_EQ(otrace::current(), 0x5001u);
    otrace::note(otrace::stage::handler_run);
    {
      otrace::scope inner(0x5002);
      otrace::note(otrace::stage::lpc_hop);
    }
    EXPECT_EQ(otrace::current(), 0x5001u);
  }
  EXPECT_EQ(otrace::current(), 0u);
  const auto recs = otrace::snapshot_records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].trace, 0x5001u);
  EXPECT_EQ(recs[1].trace, 0x5002u);
}

TEST(Otrace, OpScopeNestsOntoEnclosingTrace) {
  using aspen::telemetry::op_class;
  using aspen::telemetry::op_scope;
  arm(1);
  {
    op_scope outer(op_class::rma_put);
    const std::uint64_t id = otrace::current();
    ASSERT_NE(id, 0u);  // sample_n == 1: always drawn
    {
      // A nested op (an rget issued from inside a sampled op's completion)
      // must NOT draw its own id — it stays on the enclosing chain, and so
      // does the trace-only form rpc_ff uses.
      op_scope inner(op_class::rma_get);
      EXPECT_EQ(otrace::current(), id);
      EXPECT_EQ(aspen::telemetry::current_op().cls, op_class::rma_get);
      op_scope ff;
      EXPECT_EQ(otrace::current(), id);
      EXPECT_EQ(aspen::telemetry::current_op().cls, op_class::rma_get);
    }
    EXPECT_EQ(otrace::current(), id);
    EXPECT_EQ(aspen::telemetry::current_op().cls, op_class::rma_put);
  }
  EXPECT_EQ(otrace::current(), 0u);
  EXPECT_FALSE(aspen::telemetry::current_op().active);
  // Only the outer scope recorded an inject.
  const auto recs = otrace::snapshot_records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].st, otrace::stage::inject);
}

TEST(Otrace, RingWrapsKeepingTheNewestRecords) {
  // The flight recorder is a black box: overflow drops the OLDEST records.
  // 1<<12 bytes is the configure clamp floor; the slot count comes back
  // from ring_capacity().
  otrace::configure(1, 1 << 12, "otrace_test");
  otrace::set_thread_rank(3);
  otrace::set_current(0);
  otrace::clear();
  const std::uint64_t cap = otrace::ring_capacity();
  ASSERT_GE(cap, 64u);
  const std::uint64_t total = cap * 2 + 5;
  for (std::uint64_t i = 0; i < total; ++i)
    otrace::note_id(1, otrace::stage::inject, /*aux=*/i);
  EXPECT_EQ(otrace::records_appended(), total);
  const auto recs = otrace::snapshot_records();
  ASSERT_EQ(recs.size(), cap);
  // Oldest surviving record is append #(total - cap); newest is the last.
  EXPECT_EQ(recs.front().aux, total - cap);
  EXPECT_EQ(recs.back().aux, total - 1);
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_EQ(recs[i].aux, recs[i - 1].aux + 1);
}

TEST(Otrace, SignalSafeDumpWritesTheRingAndHealth) {
  arm(1, "otrace_dump_test");
  otrace::note_id(0x77, otrace::stage::inject, 9);
  otrace::note_id(0x77, otrace::stage::fulfill_eager);
  otrace::dump_signal_safe("signal");
  const std::string path = otrace::dump_path("otrace_dump_test", 3);
  const std::string text = slurp(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty()) << path << " was not written";
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"inject\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"fulfill_eager\""), std::string::npos);
  EXPECT_NE(text.find("\"trace\":\"0x77\""), std::string::npos);
  // The signal path carries only the lock-free health fields.
  EXPECT_NE(text.find("\"health\":{\"rank\":3,\"reason\":\"signal\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"full\":false"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"oldest_op_class\""), std::string::npos) << text;
}

TEST(Otrace, ExportPairsFlowEventsAcrossTheWireEdge) {
  arm(1, "otrace_export_test");
  const std::uint64_t id = (std::uint64_t{3} << 48) | 1;
  const std::uint64_t edge = 0x0301000000000007ull;
  otrace::note_id(id, otrace::stage::inject);
  otrace::note_id(id, otrace::stage::wire_eager, edge);
  otrace::note_id(id, otrace::stage::wire_deliver, edge);
  otrace::note_id(id, otrace::stage::handler_run);
  const std::string path = otrace::export_path("otrace_export_test", 3);
  ASSERT_TRUE(otrace::write_json(path.c_str(), 3, nullptr));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  // One 's' and one 'f' flow event, bound by the same edge id.
  EXPECT_EQ(flow_events_with_id(text, edge), 2);
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"sample_n\":1"), std::string::npos);
  EXPECT_NE(text.find("\"clock_synced\":"), std::string::npos);
  EXPECT_EQ(text.find("\"health\""), std::string::npos)
      << "a region export carries no health header";
}

TEST(Otrace, RendezvousStagesSaltTheirFlowIds) {
  arm(1, "otrace_rdzv_export");
  const std::uint64_t id = (std::uint64_t{3} << 48) | 2;
  const std::uint64_t fid = 0x0301000000000009ull;
  // Initiator-side RTS + DATA turns, target-side CTS turn and the
  // pre-salted delivery — the four stages of one rendezvous op.
  otrace::note_id(id, otrace::stage::wire_rts, fid);
  otrace::note_id(id, otrace::stage::wire_cts, fid);
  otrace::note_id(id, otrace::stage::wire_data, fid);
  otrace::note_id(id, otrace::stage::wire_deliver,
                  fid ^ otrace::kEdgeSaltData);
  const std::string path = otrace::export_path("otrace_rdzv_export", 3);
  ASSERT_TRUE(otrace::write_json(path.c_str(), 3, nullptr));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  // Each leg's flow id appears exactly twice: RTS ('s' at the initiator,
  // 'f' at the target), CTS ('s' target, 'f' initiator), DATA ('s'
  // initiator, 'f' at the delivery).
  for (const std::uint64_t salt :
       {otrace::kEdgeSaltRts, otrace::kEdgeSaltCts, otrace::kEdgeSaltData})
    EXPECT_EQ(flow_events_with_id(text, fid ^ salt), 2) << salt;
}

TEST(Otrace, SampledRputRecordsInjectAndEagerFulfillment) {
  arm(1);
  aspen::spmd(1, [] {
    auto gp = aspen::new_<std::uint64_t>(0);
    otrace::clear();
    aspen::rput(std::uint64_t{1}, gp).wait();
    const auto recs = otrace::snapshot_records();
    ASSERT_FALSE(recs.empty());
    const std::uint64_t id = recs.front().trace;
    EXPECT_EQ(recs.front().st, otrace::stage::inject);
    bool fulfilled = false;
    for (const auto& r : recs)
      if (r.trace == id && r.st == otrace::stage::fulfill_eager)
        fulfilled = true;
    EXPECT_TRUE(fulfilled) << "co-located rput must fulfill eagerly";
    aspen::delete_(gp);
  });
  otrace::configure(0, 1 << 16, nullptr);
}

// The per-op context feeds three sinks at once — the latency histograms,
// the flight recorder and (for remote ops) the watchdog — and all of them
// must agree on which op a notification belongs to: eager and deferred
// completions land on their own op's stream and trace id, and an op issued
// from inside another op's eager completion joins the outer trace without
// clobbering the outer op's class or id.
TEST(Otrace, OneContextFeedsEverySink) {
  namespace tel = aspen::telemetry;
  using tel::lat_stream;
  using aspen::operation_cx::as_defer_future;
  using aspen::operation_cx::as_eager_future;
  using aspen::operation_cx::as_eager_lpc;
  arm(1);
  aspen::spmd(2, [] {
    if (aspen::rank_me() != 0) {
      aspen::barrier();
      return;
    }
    auto gp = aspen::new_<std::uint64_t>(0);
    // Only rank 0 injects; its ids carry rank 0 in the top bits.
    const auto mine = [] {
      std::vector<otrace::record_view> out;
      for (const auto& r : otrace::snapshot_records())
        if (r.trace >> 48 == 0) out.push_back(r);
      return out;
    };
    const auto samples = [](const tel::snapshot& before, lat_stream s) {
      return (tel::local_snapshot() - before).lat_of(s).total();
    };

    // An eager rput: one sample on its eager stream, inject and
    // fulfill_eager on one id.
    otrace::clear();
    auto before = tel::local_snapshot();
    EXPECT_TRUE(aspen::rput(std::uint64_t{1}, gp, as_eager_future()).ready());
    EXPECT_EQ(samples(before, lat_stream::rma_put_eager), 1u);
    EXPECT_EQ(samples(before, lat_stream::rma_put_deferred), 0u);
    auto recs = mine();
    ASSERT_EQ(recs.size(), 2u);
    const std::uint64_t put_id = recs[0].trace;
    EXPECT_NE(put_id, 0u);
    EXPECT_EQ(recs[0].st, otrace::stage::inject);
    EXPECT_EQ(recs[1].st, otrace::stage::fulfill_eager);
    EXPECT_EQ(recs[1].trace, put_id);

    // A deferred rget: nothing is recorded for its completion until the
    // progress engine fires it, then one deferred sample and one
    // fulfill_deferred, on a fresh id.
    otrace::clear();
    before = tel::local_snapshot();
    auto got = aspen::rget(gp, as_defer_future());
    EXPECT_FALSE(got.ready());
    EXPECT_EQ(samples(before, lat_stream::rma_get_deferred), 0u);
    recs = mine();
    ASSERT_EQ(recs.size(), 1u);
    const std::uint64_t get_id = recs[0].trace;
    EXPECT_EQ(recs[0].st, otrace::stage::inject);
    EXPECT_NE(get_id, put_id);
    aspen::progress();
    ASSERT_TRUE(got.ready());
    EXPECT_EQ(got.result(), 1u);
    EXPECT_EQ(samples(before, lat_stream::rma_get_deferred), 1u);
    EXPECT_EQ(samples(before, lat_stream::rma_get_eager), 0u);
    recs = mine();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[1].st, otrace::stage::fulfill_deferred);
    EXPECT_EQ(recs[1].trace, get_id);

    // An rget issued from inside an rput's eager lpc completion: it records
    // rma_get latency on the outer trace and draws no inject of its own.
    // The rput's future sits between two such lpcs, so whichever order the
    // items are processed in, it completes after a nested rget returned —
    // and must still land on rma_put_eager under the outer id.
    otrace::clear();
    before = tel::local_snapshot();
    std::vector<std::uint64_t> inner_ids;
    const auto nested_get = [gp, &inner_ids] {
      inner_ids.push_back(otrace::current());
      EXPECT_TRUE(aspen::rget(gp, as_eager_future()).ready());
    };
    auto put = aspen::rput(std::uint64_t{2}, gp,
                           as_eager_lpc(nested_get) | as_eager_future() |
                               as_eager_lpc(nested_get));
    EXPECT_TRUE(put.ready());
    EXPECT_EQ(otrace::current(), 0u);
    EXPECT_EQ(samples(before, lat_stream::rma_put_eager), 3u);
    EXPECT_EQ(samples(before, lat_stream::rma_get_eager), 2u);
    EXPECT_EQ(samples(before, lat_stream::rma_get_deferred), 0u);
    recs = mine();
    ASSERT_FALSE(recs.empty());
    const std::uint64_t outer_id = recs[0].trace;
    EXPECT_EQ(recs[0].st, otrace::stage::inject);
    ASSERT_EQ(inner_ids.size(), 2u);
    EXPECT_EQ(inner_ids[0], outer_id);
    EXPECT_EQ(inner_ids[1], outer_id);
    int injects = 0;
    int eager = 0;
    for (const auto& r : recs) {
      EXPECT_EQ(r.trace, outer_id);
      injects += r.st == otrace::stage::inject ? 1 : 0;
      eager += r.st == otrace::stage::fulfill_eager ? 1 : 0;
    }
    EXPECT_EQ(injects, 1);
    EXPECT_EQ(eager, 5);  // two lpcs, two nested rgets, the rput's future

    aspen::delete_(gp);
    aspen::barrier();
  });
  otrace::configure(0, 1 << 16, nullptr);
}

TEST(Otrace, StageNamesAreStableAndDistinct) {
  const otrace::stage all[] = {
      otrace::stage::inject,        otrace::stage::am_send,
      otrace::stage::wire_eager,    otrace::stage::wire_rts,
      otrace::stage::wire_cts,      otrace::stage::wire_data,
      otrace::stage::shm_push,      otrace::stage::agg_stage,
      otrace::stage::wire_deliver,  otrace::stage::handler_run,
      otrace::stage::lpc_hop,       otrace::stage::fulfill_eager,
      otrace::stage::fulfill_deferred,
  };
  std::vector<std::string> names;
  for (otrace::stage s : all) names.emplace_back(otrace::to_string(s));
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  EXPECT_EQ(names[0], "inject");
  EXPECT_EQ(names[12], "fulfill_deferred");
}

#else  // !ASPEN_TELEMETRY_ENABLED

// Compiled out: ids are always 0, scopes carry no state, nothing records.
static_assert(sizeof(otrace::scope) == 1);
static_assert(sizeof(aspen::telemetry::op_scope) == 1);

TEST(OtraceOff, EverythingCompilesToNothing) {
  EXPECT_FALSE(otrace::enabled());
  EXPECT_EQ(otrace::begin_op(), 0u);
  EXPECT_EQ(otrace::current(), 0u);
  otrace::note(otrace::stage::inject, 1);
  otrace::note_id(7, otrace::stage::am_send, 2);
  EXPECT_EQ(otrace::records_appended(), 0u);
  EXPECT_TRUE(otrace::snapshot_records().empty());
  EXPECT_FALSE(otrace::write_json("never_written.json", 0, nullptr));
  // The path helpers are compiled in either way.
  EXPECT_EQ(otrace::export_path("aspen", 1), "aspen.rank1.otrace.json");
  EXPECT_EQ(otrace::dump_path("aspen", 1), "aspen.rank1.dump.json");
}

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace
