/**
 * @file
 * Randomized differential test of the whole detection pipeline.
 *
 * Programs are random sequences of {write slot, flush slot, fence}
 * over a handful of cache-line-separated slots. An independent oracle
 * (a 20-line re-implementation of the persistence rules, sharing no
 * code with the shadow PM) predicts, for every fence-delimited
 * failure point, which slots are not guaranteed persisted. The
 * driver's race findings must match the oracle exactly — no misses,
 * no false alarms — across hundreds of seeded programs.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "core/driver.hh"
#include "harness.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;

constexpr unsigned numSlots = 4;
constexpr std::size_t slotStride = 128; // two lines apart: no sharing

enum class OpKind : std::uint8_t { Write, Flush, Fence };

struct FuzzOp
{
    OpKind kind;
    unsigned slot; // for Write/Flush
};

std::vector<FuzzOp>
generate(std::uint64_t seed, unsigned length)
{
    Rng rng(seed);
    std::vector<FuzzOp> ops;
    for (unsigned i = 0; i < length; i++) {
        std::uint64_t pick = rng.below(10);
        if (pick < 5) {
            ops.push_back(
                {OpKind::Write, static_cast<unsigned>(rng.below(numSlots))});
        } else if (pick < 8) {
            ops.push_back(
                {OpKind::Flush, static_cast<unsigned>(rng.below(numSlots))});
        } else {
            ops.push_back({OpKind::Fence, 0});
        }
    }
    // Terminate with a fence so the last interval is testable.
    ops.push_back({OpKind::Fence, 0});
    return ops;
}

/**
 * Independent oracle: which slots can a post-failure read race on at
 * *any* fence-delimited failure point? (The driver aggregates across
 * failure points, so the expectation set is the union.)
 */
std::set<unsigned>
oracleRacingSlots(const std::vector<FuzzOp> &ops)
{
    enum class S : std::uint8_t { Clean, Dirty, Flushed };
    std::set<unsigned> racy;
    S state[numSlots];
    bool written[numSlots];
    for (unsigned s = 0; s < numSlots; s++) {
        state[s] = S::Clean;
        written[s] = false;
    }
    for (const auto &op : ops) {
        if (op.kind == OpKind::Fence) {
            // Failure point just before this fence: every slot that
            // was written but is not persisted-clean races.
            for (unsigned s = 0; s < numSlots; s++) {
                if (written[s] && state[s] != S::Clean)
                    racy.insert(s);
            }
            for (unsigned s = 0; s < numSlots; s++) {
                if (state[s] == S::Flushed)
                    state[s] = S::Clean;
            }
        } else if (op.kind == OpKind::Write) {
            state[op.slot] = S::Dirty;
            written[op.slot] = true;
        } else { // Flush
            if (state[op.slot] == S::Dirty)
                state[op.slot] = S::Flushed;
        }
    }
    return racy;
}

std::set<unsigned>
detectorRacingSlots(const std::vector<FuzzOp> &ops, unsigned gran = 1)
{
    pm::PmPool pool(1 << 20);
    core::DetectorConfig cfg;
    cfg.elideEmptyFailurePoints = false; // test every fence
    cfg.granularity = gran;
    core::Driver driver(pool, cfg);

    auto slot_host = [&](pm::PmPool &p, unsigned s) {
        return p.at<std::uint64_t>(s * slotStride);
    };

    auto res = driver.run(
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            std::uint64_t v = 1;
            for (const auto &op : ops) {
                switch (op.kind) {
                  case OpKind::Write:
                    rt.store(*slot_host(rt.pool(), op.slot), v++);
                    break;
                  case OpKind::Flush:
                    rt.clwb(slot_host(rt.pool(), op.slot), 8);
                    break;
                  case OpKind::Fence:
                    rt.sfence();
                    break;
                }
            }
        },
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            // One source line per slot: findings dedupe on the
            // reader/writer line pair, and this test needs per-slot
            // resolution.
            (void)rt.load(*slot_host(rt.pool(), 0));
            (void)rt.load(*slot_host(rt.pool(), 1));
            (void)rt.load(*slot_host(rt.pool(), 2));
            (void)rt.load(*slot_host(rt.pool(), 3));
        });

    std::set<unsigned> racy;
    for (const auto &b : res.findings()) {
        if (b.type != core::BugType::CrossFailureRace)
            continue;
        racy.insert(static_cast<unsigned>(
            (b.addr - pool.base()) / slotStride));
    }
    return racy;
}

class FuzzPersistence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzPersistence, DriverMatchesOracle)
{
    std::uint64_t seed = GetParam();
    for (unsigned round = 0; round < 8; round++) {
        std::uint64_t s = seed * 1000 + round;
        auto ops = generate(s, 24);
        auto expect = oracleRacingSlots(ops);
        auto got = detectorRacingSlots(ops);
        EXPECT_EQ(got, expect) << "replay with XFD_FUZZ_SEED=" << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPersistence,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(FuzzPersistenceGranularity, CoarseCellsMatchOracleToo)
{
    // Slots are 128 bytes apart, so coarser shadow cells cannot
    // false-share across slots; the oracle must hold at 8B cells.
    for (std::uint64_t seed = 100; seed < 110; seed++) {
        auto ops = generate(seed, 24);
        EXPECT_EQ(detectorRacingSlots(ops, 8), oracleRacingSlots(ops))
            << "replay with XFD_FUZZ_SEED=" << seed;
    }
}

TEST(FuzzPersistenceReplay, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP()
            << "set XFD_FUZZ_SEED=<seed from a failure message> to "
               "replay a single fuzz program";
    auto ops = generate(s, 24);
    EXPECT_EQ(detectorRacingSlots(ops), oracleRacingSlots(ops))
        << "XFD_FUZZ_SEED=" << s;
}

TEST(FuzzPersistenceOracle, SanityOnKnownSequences)
{
    // write A; fence               -> A races (never flushed)
    auto racy = oracleRacingSlots(
        {{OpKind::Write, 0}, {OpKind::Fence, 0}});
    EXPECT_EQ(racy, (std::set<unsigned>{0}));

    // write A; flush A; fence      -> A races only at the pre-fence
    //                                 point (dirty there), then clean
    racy = oracleRacingSlots(
        {{OpKind::Write, 0}, {OpKind::Flush, 0}, {OpKind::Fence, 0}});
    EXPECT_EQ(racy, (std::set<unsigned>{0}));

    // write A; flush A; fence; fence -> second point clean, but the
    //                                   union still contains A
    racy = oracleRacingSlots({{OpKind::Write, 0},
                              {OpKind::Flush, 0},
                              {OpKind::Fence, 0},
                              {OpKind::Fence, 0}});
    EXPECT_EQ(racy, (std::set<unsigned>{0}));
}

} // namespace
