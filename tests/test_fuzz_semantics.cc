/**
 * @file
 * Randomized differential test of the commit-variable semantics
 * (paper condition (3)): random sequences of persisted slot writes
 * and commit writes, checked against an independent oracle.
 *
 * Each operation is store+CLWB+SFENCE, so the driver injects one
 * failure point per operation (before its fence). At that point the
 * operation's own write is still writeback-pending; the oracle
 * therefore predicts, per failure point:
 *   - consistent (last write between the last two commit writes): ok;
 *   - inconsistent and pending (the op's own write): RACE;
 *   - inconsistent and persisted (an earlier write): SEMANTIC.
 * The driver's findings, unioned over failure points, must match.
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

constexpr unsigned numSlots = 3;
constexpr std::size_t slotStride = 128;
constexpr std::size_t commitOff = numSlots * slotStride;

enum class OpKind : std::uint8_t { WriteSlot, CommitWrite };

struct FuzzOp
{
    OpKind kind;
    unsigned slot;
};

struct Verdicts
{
    std::set<unsigned> races;
    std::set<unsigned> semantics;

    bool operator==(const Verdicts &) const = default;
};

std::vector<FuzzOp>
generate(std::uint64_t seed, unsigned length)
{
    Rng rng(seed);
    std::vector<FuzzOp> ops;
    for (unsigned i = 0; i < length; i++) {
        if (rng.below(10) < 7) {
            ops.push_back({OpKind::WriteSlot,
                           static_cast<unsigned>(rng.below(numSlots))});
        } else {
            ops.push_back({OpKind::CommitWrite, 0});
        }
    }
    return ops;
}

Verdicts
oracle(const std::vector<FuzzOp> &ops)
{
    Verdicts v;
    int tlast_slot[numSlots];
    for (unsigned s = 0; s < numSlots; s++)
        tlast_slot[s] = -1;
    int commit_last = -1, commit_prelast = -1;

    for (unsigned i = 0; i < ops.size(); i++) {
        // Op i's write has executed (shadow timestamps update at the
        // write), but its fence has not retired at the failure point.
        if (ops[i].kind == OpKind::WriteSlot) {
            tlast_slot[ops[i].slot] = static_cast<int>(i);
        } else {
            commit_prelast = commit_last;
            commit_last = static_cast<int>(i);
        }
        for (unsigned s = 0; s < numSlots; s++) {
            int tl = tlast_slot[s];
            if (tl < 0)
                continue; // never written: initial data is fine
            bool consistent =
                commit_prelast <= tl && tl < commit_last;
            if (consistent)
                continue;
            if (tl == static_cast<int>(i))
                v.races.insert(s); // the pending write itself
            else
                v.semantics.insert(s); // persisted but inconsistent
        }
    }
    return v;
}

Verdicts
detector(const std::vector<FuzzOp> &ops)
{
    pm::PmPool pool(1 << 20);
    core::DetectorConfig cfg;
    cfg.elideEmptyFailurePoints = false;
    core::Driver driver(pool, cfg);

    auto slot_host = [](pm::PmPool &p, unsigned s) {
        return p.at<std::uint64_t>(s * slotStride);
    };
    auto commit_host = [](pm::PmPool &p) {
        return p.at<std::uint64_t>(commitOff);
    };

    auto annotate = [&](PmRuntime &rt) {
        auto *cv = commit_host(rt.pool());
        rt.addCommitVar(*cv);
        for (unsigned s = 0; s < numSlots; s++)
            rt.addCommitRange(*cv, slot_host(rt.pool(), s), 8);
    };

    auto res = driver.run(
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            annotate(rt);
            std::uint64_t v = 1;
            for (const auto &op : ops) {
                if (op.kind == OpKind::WriteSlot) {
                    auto *h = slot_host(rt.pool(), op.slot);
                    rt.store(*h, v++);
                    rt.persistBarrier(h, 8);
                } else {
                    auto *cv = commit_host(rt.pool());
                    rt.store(*cv, v++);
                    rt.persistBarrier(cv, 8);
                }
            }
        },
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            annotate(rt);
            // Distinct source lines: findings dedupe per line pair.
            (void)rt.load(*slot_host(rt.pool(), 0));
            (void)rt.load(*slot_host(rt.pool(), 1));
            (void)rt.load(*slot_host(rt.pool(), 2));
        });

    Verdicts v;
    for (const auto &b : res.findings()) {
        auto slot =
            static_cast<unsigned>((b.addr - pool.base()) / slotStride);
        if (b.type == core::BugType::CrossFailureRace)
            v.races.insert(slot);
        else if (b.type == core::BugType::CrossFailureSemantic)
            v.semantics.insert(slot);
        else
            ADD_FAILURE() << "unexpected finding: " << b.str();
    }
    return v;
}

class FuzzSemantics : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzSemantics, DriverMatchesOracle)
{
    std::uint64_t seed = GetParam();
    for (unsigned round = 0; round < 6; round++) {
        std::uint64_t s = seed * 777 + round;
        auto ops = generate(s, 16);
        Verdicts expect = oracle(ops);
        Verdicts got = detector(ops);
        EXPECT_EQ(got.races, expect.races)
            << "replay with XFD_FUZZ_SEED=" << s;
        EXPECT_EQ(got.semantics, expect.semantics)
            << "replay with XFD_FUZZ_SEED=" << s;
    }
}

TEST(FuzzSemanticsReplay, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP()
            << "set XFD_FUZZ_SEED=<seed from a failure message> to "
               "replay a single fuzz program";
    auto ops = generate(s, 16);
    Verdicts expect = oracle(ops);
    Verdicts got = detector(ops);
    EXPECT_EQ(got.races, expect.races) << "XFD_FUZZ_SEED=" << s;
    EXPECT_EQ(got.semantics, expect.semantics)
        << "XFD_FUZZ_SEED=" << s;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSemantics,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(FuzzSemanticsOracle, SanityOnKnownSequences)
{
    using K = OpKind;
    // write s0; commit: race at s0's own point (pending,
    // uncommitted); at the commit's point s0 is persisted but its
    // write is not yet *before* the last commit... it is: tlast=0 <
    // commit_last=1 and >= prelast(-1): consistent. So only a race.
    Verdicts v = oracle({{K::WriteSlot, 0}, {K::CommitWrite, 0}});
    EXPECT_EQ(v.races, (std::set<unsigned>{0}));
    EXPECT_TRUE(v.semantics.empty());

    // write s0; write s1; commit; commit: s0/s1 race at their own
    // points; at the second commit both are stale (written before the
    // pre-last commit? s0: tlast 0 < prelast... prelast=2 after the
    // 2nd commit; 0 < 2 -> inconsistent persisted -> semantic).
    v = oracle({{K::WriteSlot, 0},
                {K::WriteSlot, 1},
                {K::CommitWrite, 0},
                {K::CommitWrite, 0}});
    EXPECT_EQ(v.races, (std::set<unsigned>{0, 1}));
    EXPECT_EQ(v.semantics, (std::set<unsigned>{0, 1}));
}

} // namespace
