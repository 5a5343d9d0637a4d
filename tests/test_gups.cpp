// GUPS application tests: random-stream conformance, table partitioning,
// and update-correctness of every benchmark variant.
#include <gtest/gtest.h>

#include "apps/gups/gups.hpp"

namespace g = aspen::apps::gups;

namespace {

TEST(GupsStream, NextRandomMatchesHpccRecurrence) {
  // r' = (r << 1) ^ (POLY if the top bit was set)
  EXPECT_EQ(g::next_random(1), 2u);
  EXPECT_EQ(g::next_random(0x8000000000000000ull), 7u);
  EXPECT_EQ(g::next_random(0xC000000000000000ull),
            (0xC000000000000000ull << 1) ^ 7u);
}

TEST(GupsStream, StartsAtZeroIsOne) { EXPECT_EQ(g::starts(0), 1u); }

TEST(GupsStream, StartsMatchesSequentialAdvance) {
  // starts(n) must equal n applications of next_random from starts(0).
  std::uint64_t r = g::starts(0);
  for (int n = 1; n <= 200; ++n) {
    r = g::next_random(r);
    ASSERT_EQ(g::starts(n), r) << "position " << n;
  }
}

TEST(GupsStream, StartsJumpsAgree) {
  std::uint64_t r = g::starts(1000);
  for (int i = 0; i < 500; ++i) r = g::next_random(r);
  EXPECT_EQ(g::starts(1500), r);
}

TEST(GupsTable, LocatePartitionsEvenly) {
  aspen::spmd(4, [] {
    g::params p;
    p.table_bits = 12;
    g::table t(p);
    EXPECT_EQ(t.size(), 4096u);
    EXPECT_EQ(t.per_rank(), 1024u);
    for (std::uint64_t idx : {0ull, 1023ull, 1024ull, 4095ull}) {
      auto gp = t.locate(idx);
      EXPECT_EQ(gp.where(), static_cast<int>(idx / 1024));
      EXPECT_EQ(*gp.local(), idx);  // identity fill
    }
  });
}

TEST(GupsTable, CountErrorsDetectsCorruption) {
  aspen::spmd(2, [] {
    g::params p;
    p.table_bits = 10;
    g::table t(p);
    EXPECT_EQ(t.count_errors(), 0u);
    if (aspen::rank_me() == 0) {
      t.local_slice()[3] ^= 0xDEADBEEF;
      t.local_slice()[7] ^= 0xDEADBEEF;
    }
    EXPECT_EQ(t.count_errors(), 2u);
    t.fill_identity();
    EXPECT_EQ(t.count_errors(), 0u);
  });
}

class GupsVariant : public ::testing::TestWithParam<g::variant> {};

// HPCC-style verification: XOR updates are self-inverse, so running the
// same update phase twice must restore the identity table. The atomic and
// rpc variants are exact with every rank issuing at once (each update is
// applied atomically, or by the owner through its progress engine). The
// unsynchronized variants lose updates when two ranks race on one entry,
// and how many depends only on scheduling, so they issue in turns: every
// rank runs both phases while only rank `turn` has updates, which still
// sends its RMA to every rank's slice but rules out cross-rank conflicts.
// Within one rank a batch's updates are deterministic (same-batch
// collisions lose the same update in both runs), so the result is exact.
TEST_P(GupsVariant, DoubleRunRestoresIdentity) {
  const g::variant v = GetParam();
  aspen::spmd(4, [v] {
    g::params p;
    p.table_bits = 14;
    p.updates_per_rank = 1 << 12;
    p.batch = 128;
    g::table t(p);
    const bool concurrent = v == g::variant::amo_promises ||
                            v == g::variant::amo_futures ||
                            v == g::variant::rpc_ff;
    for (int turn = 0; turn < (concurrent ? 1 : aspen::rank_n()); ++turn) {
      g::params mine = p;
      if (!concurrent && aspen::rank_me() != turn) mine.updates_per_rank = 0;
      (void)g::run_variant(v, t, mine);
      (void)g::run_variant(v, t, mine);
    }
    EXPECT_EQ(t.count_errors(), 0u);
  });
}

// Single-rank runs have no concurrency, so every variant must be exact.
TEST_P(GupsVariant, SingleRankIsExact) {
  const g::variant v = GetParam();
  aspen::spmd(1, [v] {
    g::params p;
    p.table_bits = 12;
    p.updates_per_rank = 1 << 12;
    p.batch = 64;
    g::table t(p);
    (void)g::run_variant(v, t, p);
    (void)g::run_variant(v, t, p);
    EXPECT_EQ(t.count_errors(), 0u);
  });
}

// The immediately-applied variants (raw C++, manual localization, atomics)
// perform each XOR against the current table value, so on one rank they all
// produce the identical final table. The batched pure-RMA variants are
// excluded: a batch reads before it writes, so two same-batch updates to one
// index legitimately lose an update (the benchmark's documented relaxation).
TEST(GupsVariants, ImmediateVariantsProduceSameTableSingleRank) {
  aspen::spmd(1, [] {
    g::params p;
    p.table_bits = 12;
    p.updates_per_rank = 1 << 11;
    p.batch = 64;
    std::vector<std::uint64_t> reference;
    for (g::variant v :
         {g::variant::raw_cpp, g::variant::manual_localization,
          g::variant::amo_promises, g::variant::amo_futures}) {
      g::table t(p);
      (void)g::run_variant(v, t, p);
      std::vector<std::uint64_t> snapshot(t.local_slice(),
                                          t.local_slice() + t.per_rank());
      if (reference.empty()) {
        reference = snapshot;
      } else {
        EXPECT_EQ(snapshot, reference) << g::to_string(v);
      }
    }
  });
}

TEST(GupsResult, RatesComputedFromTime) {
  g::result r;
  r.seconds = 2.0;
  r.updates = 4'000'000'000ull;
  EXPECT_DOUBLE_EQ(r.gups(), 2.0);
  EXPECT_DOUBLE_EQ(r.mups(), 2000.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GupsVariant, ::testing::ValuesIn(g::extended_variants()),
    [](const ::testing::TestParamInfo<g::variant>& info) {
      std::string name{g::to_string(info.param)};
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
