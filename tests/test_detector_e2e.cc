/**
 * @file
 * End-to-end detection tests against the campaign driver, built around
 * the paper's Figure 2 program: an array update protected by a backup
 * slot and a `valid` commit variable.
 *
 * The as-printed (buggy) version sets `valid` to the wrong values, so
 * recovery either skips a needed rollback (cross-failure race on the
 * unpersisted in-place update) or rolls back with a stale backup
 * (cross-failure semantic bug). The corrected version must produce no
 * findings — the no-false-positive half of the contract.
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "harness.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"

namespace
{

using namespace xfd;
using core::BugType;
using core::CampaignResult;
using core::DetectorConfig;
using core::Driver;
using trace::PmRuntime;

/** Persistent layout of the Figure 2 program, at the pool base. */
struct ArrayRoot
{
    std::int64_t backupIdx;
    std::int64_t backupVal;
    std::uint8_t valid;
    std::uint8_t pad[47];
    std::int64_t arr[8]; // starts at offset 64: own cache line
};

struct Fig2Program
{
    /** When false, `valid` is set to the paper's buggy values. */
    bool fixed;
    int idx = 5;
    std::int64_t newVal = 42;

    ArrayRoot *
    root(PmRuntime &rt) const
    {
        return static_cast<ArrayRoot *>(rt.pool().toHost(rt.pool().base()));
    }

    void
    annotate(PmRuntime &rt, ArrayRoot *r) const
    {
        rt.addCommitVar(r->valid);
        rt.addCommitRange(r->valid, &r->backupIdx, 16);
        rt.addCommitRange(r->valid, r->arr, sizeof(r->arr));
    }

    void
    pre(PmRuntime &rt) const
    {
        ArrayRoot *r = root(rt);
        trace::RoiScope roi(rt);
        annotate(rt, r);

        // update(idx, newVal), paper Figure 2.
        rt.store(r->backupIdx, static_cast<std::int64_t>(idx));
        rt.store(r->backupVal, r->arr[idx]);
        rt.persistBarrier(&r->backupIdx, 16);
        rt.store(r->valid, static_cast<std::uint8_t>(fixed ? 1 : 0));
        rt.persistBarrier(&r->valid, 1);
        rt.store(r->arr[idx], newVal);
        rt.persistBarrier(&r->arr[idx], 8);
        rt.store(r->valid, static_cast<std::uint8_t>(fixed ? 0 : 1));
        rt.persistBarrier(&r->valid, 1);
    }

    void
    post(PmRuntime &rt) const
    {
        ArrayRoot *r = root(rt);
        trace::RoiScope roi(rt);
        annotate(rt, r);

        // recover(): roll back iff the backup is marked valid.
        if (rt.load(r->valid)) {
            std::int64_t bidx = rt.load(r->backupIdx);
            std::int64_t bval = rt.load(r->backupVal);
            rt.store(r->arr[bidx], bval);
            rt.persistBarrier(&r->arr[bidx], 8);
            rt.store(r->valid, static_cast<std::uint8_t>(0));
            rt.persistBarrier(&r->valid, 1);
        }
        // Resumption: the next operation reads the slot.
        (void)rt.load(r->arr[idx]);
    }
};

struct DetectorE2E : ::testing::Test
{
    // Tests that inspect the pool after a run, or drive the Driver
    // directly, share this fixture pool; plain campaigns go through
    // the harness on a fresh pool.
    pm::PmPool pool{1 << 20};

    CampaignResult
    runCampaign(const Fig2Program &prog, DetectorConfig cfg = {})
    {
        xfdtest::RunOptions opt;
        opt.detector = cfg;
        opt.poolBytes = 1 << 20;
        return xfdtest::runCampaign(
            [&](PmRuntime &rt) { prog.pre(rt); },
            [&](PmRuntime &rt) { prog.post(rt); }, opt);
    }
};

TEST_F(DetectorE2E, CorrectProtocolHasNoFindings)
{
    Fig2Program prog{true};
    CampaignResult res = runCampaign(prog);
    EXPECT_EQ(res.findings().size(), 0u) << res.summary();
    EXPECT_GT(res.statistics().failurePoints, 0u);
    EXPECT_EQ(res.statistics().postExecutions, res.statistics().failurePoints);
}

TEST_F(DetectorE2E, BuggyProtocolYieldsRaceAndSemanticBug)
{
    Fig2Program prog{false};
    CampaignResult res = runCampaign(prog);
    EXPECT_TRUE(xfdtest::hasFindingOfClass(
        res, BugType::CrossFailureRace));
    EXPECT_TRUE(xfdtest::hasFindingOfClass(
        res, BugType::CrossFailureSemantic));
}

TEST_F(DetectorE2E, BugReportPointsAtReaderAndWriter)
{
    Fig2Program prog{false};
    CampaignResult res = runCampaign(prog);
    ASSERT_TRUE(res.hasBugs());
    for (const auto &b : res.findings()) {
        EXPECT_GT(b.reader.line, 0u);
        EXPECT_NE(std::string(b.reader.file).find("test_detector_e2e"),
                  std::string::npos);
    }
}

TEST_F(DetectorE2E, FailurePointCountMatchesOrderingPoints)
{
    // Four persist barriers inside the RoI -> four failure points.
    Fig2Program prog{true};
    CampaignResult res = runCampaign(prog);
    EXPECT_EQ(res.statistics().failurePoints, 4u);
}

TEST_F(DetectorE2E, PoolHoldsFinalStateAfterCampaign)
{
    Fig2Program prog{true};
    Driver driver(pool, {});
    (void)driver.run([&](PmRuntime &rt) { prog.pre(rt); },
                     [&](PmRuntime &rt) { prog.post(rt); });
    auto *r = static_cast<ArrayRoot *>(pool.toHost(pool.base()));
    EXPECT_EQ(r->arr[5], 42);
    EXPECT_EQ(r->valid, 0);
}

TEST_F(DetectorE2E, DedupeAcrossFailurePoints)
{
    Fig2Program prog{false};
    CampaignResult res = runCampaign(prog);
    // The same reader/writer pair at several failure points is one
    // finding with occurrences counted.
    for (const auto &b : res.findings())
        EXPECT_GE(b.occurrences, 1u);
    std::size_t races = res.count(BugType::CrossFailureRace);
    EXPECT_LE(races, 2u);
}

TEST_F(DetectorE2E, RecoveryFailureReported)
{
    Fig2Program prog{true};
    Driver driver(pool, {});
    CampaignResult res = driver.run(
        [&](PmRuntime &rt) { prog.pre(rt); },
        [&](PmRuntime &rt) {
            throw trace::PostFailureAbort{"recovery exploded",
                                          trace::here()};
            (void)rt;
        });
    EXPECT_EQ(res.count(BugType::RecoveryFailure), 1u);
    EXPECT_EQ(res.findings()[0].note, "recovery exploded");
}

TEST_F(DetectorE2E, PerformanceBugRedundantFlush)
{
    Driver driver(pool, {});
    CampaignResult res = driver.run(
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            auto *v = static_cast<std::uint64_t *>(
                rt.pool().toHost(rt.pool().base()));
            rt.store(*v, std::uint64_t{1});
            rt.persistBarrier(v, 8);
            rt.clwb(v, 8); // redundant: line already persisted
            rt.sfence();
        },
        [](PmRuntime &) {});
    EXPECT_EQ(res.count(BugType::Performance), 1u) << res.summary();
}

TEST_F(DetectorE2E, PerformanceBugsCanBeSilenced)
{
    DetectorConfig cfg;
    cfg.reportPerformanceBugs = false;
    Driver driver(pool, cfg);
    CampaignResult res = driver.run(
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            auto *v = static_cast<std::uint64_t *>(
                rt.pool().toHost(rt.pool().base()));
            rt.store(*v, std::uint64_t{1});
            rt.persistBarrier(v, 8);
            rt.clwb(v, 8);
            rt.sfence();
        },
        [](PmRuntime &) {});
    EXPECT_EQ(res.count(BugType::Performance), 0u);
}

TEST_F(DetectorE2E, CompleteDetectionTerminatesPost)
{
    Fig2Program prog{true};
    Driver driver(pool, {});
    CampaignResult res = driver.run(
        [&](PmRuntime &rt) { prog.pre(rt); },
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            rt.completeDetection();
        });
    EXPECT_EQ(res.findings().size(), 0u);
    EXPECT_EQ(res.statistics().postExecutions, res.statistics().failurePoints);
}

TEST_F(DetectorE2E, BaselineModesRun)
{
    Fig2Program prog{true};
    Driver driver(pool, {});
    double traced = driver.runBaseline(
        [&](PmRuntime &rt) { prog.pre(rt); }, true);
    double original = driver.runBaseline(
        [&](PmRuntime &rt) { prog.pre(rt); }, false);
    EXPECT_GE(traced, 0.0);
    EXPECT_GE(original, 0.0);
}

TEST_F(DetectorE2E, StatsAreCoherent)
{
    Fig2Program prog{false};
    CampaignResult res = runCampaign(prog);
    EXPECT_GT(res.statistics().preTraceEntries, 0u);
    EXPECT_GT(res.statistics().postTraceEntries, 0u);
    EXPECT_GT(res.statistics().checksPerformed, 0u);
    EXPECT_GE(res.statistics().preSeconds, 0.0);
    EXPECT_EQ(res.statistics().orderingCandidates,
              res.statistics().failurePoints + res.statistics().elidedPoints);
}

TEST_F(DetectorE2E, SummaryMentionsBugTypes)
{
    Fig2Program prog{false};
    CampaignResult res = runCampaign(prog);
    std::string s = res.summary();
    EXPECT_NE(s.find("CROSS-FAILURE RACE"), std::string::npos);
    EXPECT_NE(s.find("CROSS-FAILURE SEMANTIC BUG"), std::string::npos);
}

} // namespace
