/**
 * @file
 * Workload tests: functional correctness against the volatile
 * reference model, determinism, crash-recovery round trips, and —
 * most importantly — the no-false-positive gauntlet: a full detection
 * campaign over every bug-free workload must report no cross-failure
 * findings (the paper's tool reports only real bugs on these
 * programs).
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "harness.hh"
#include "pmlib/objpool.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using core::BugType;
using core::Driver;
using trace::PmRuntime;
using workloads::makeWorkload;
using workloads::Workload;
using workloads::WorkloadConfig;

constexpr std::size_t poolSize = 1 << 22;

class WorkloadParamTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadParamTest, FunctionalAgainstReferenceModel)
{
    WorkloadConfig cfg;
    cfg.initOps = 12;
    cfg.testOps = 12;
    auto w = makeWorkload(GetParam(), cfg);

    pm::PmPool pool(poolSize);
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    w->pre(rt);
    EXPECT_EQ(w->verify(rt), "");
}

TEST_P(WorkloadParamTest, DeterministicTrace)
{
    WorkloadConfig cfg;
    cfg.initOps = 6;
    cfg.testOps = 6;
    std::size_t sizes[2];
    for (int round = 0; round < 2; round++) {
        auto w = makeWorkload(GetParam(), cfg);
        pm::PmPool pool(poolSize);
        trace::TraceBuffer buf;
        PmRuntime rt(pool, buf, trace::Stage::PreFailure);
        w->pre(rt);
        sizes[round] = buf.size();
    }
    EXPECT_EQ(sizes[0], sizes[1]);
}

TEST_P(WorkloadParamTest, PostStageRunsAfterPre)
{
    WorkloadConfig cfg;
    cfg.initOps = 6;
    cfg.testOps = 4;
    cfg.postOps = 3;
    auto w = makeWorkload(GetParam(), cfg);

    pm::PmPool pool(poolSize);
    trace::TraceBuffer pre_buf, post_buf;
    {
        PmRuntime rt(pool, pre_buf, trace::Stage::PreFailure);
        w->pre(rt);
    }
    {
        PmRuntime rt(pool, post_buf, trace::Stage::PostFailure);
        w->post(rt); // recovery on a cleanly finished image
    }
    EXPECT_GT(post_buf.size(), 0u);
}

TEST_P(WorkloadParamTest, NoFalsePositives)
{
    // Large enough that splits, rebuilds and remove paths all run.
    WorkloadConfig cfg;
    cfg.initOps = 8;
    cfg.testOps = 10;
    cfg.postOps = 4;
    auto res = xfdtest::runWorkload(GetParam(), cfg);
    EXPECT_TRUE(xfdtest::hasNoFindings(res));
    EXPECT_GT(res.statistics().failurePoints, 0u);
}

TEST_P(WorkloadParamTest, NoFalsePositivesWithRoiFromStart)
{
    WorkloadConfig cfg;
    cfg.initOps = 2;
    cfg.testOps = 2;
    cfg.postOps = 2;
    cfg.roiFromStart = true;
    auto res = xfdtest::runWorkload(GetParam(), cfg);
    EXPECT_TRUE(
        xfdtest::hasNoFindingOfClass(res, BugType::CrossFailureRace));
    EXPECT_TRUE(
        xfdtest::hasNoFindingOfClass(res, BugType::CrossFailureSemantic));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadParamTest,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n) {
                                 if (c == '-' || c == '_')
                                     c = 'X';
                             }
                             return n;
                         });

TEST(WorkloadFactory, ListsNineWorkloads)
{
    EXPECT_EQ(workloads::workloadNames().size(), 9u);
}

TEST(WorkloadScaling, MoreOpsMoreTraceEntries)
{
    std::size_t last = 0;
    for (unsigned ops : {1u, 5u, 10u}) {
        WorkloadConfig cfg;
        cfg.initOps = 3;
        cfg.testOps = ops;
        auto w = makeWorkload("btree", cfg);
        pm::PmPool pool(poolSize);
        trace::TraceBuffer buf;
        PmRuntime rt(pool, buf, trace::Stage::PreFailure);
        w->pre(rt);
        EXPECT_GT(buf.size(), last);
        last = buf.size();
    }
}

TEST(MemcachedEviction, CapacityEnforced)
{
    WorkloadConfig cfg;
    cfg.initOps = 20;
    cfg.testOps = 10;
    cfg.memcachedCapacity = 8;
    auto w = makeWorkload("memcached", cfg);
    pm::PmPool pool(poolSize);
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    w->pre(rt);
    // verify() skips content checks beyond capacity but must not
    // report errors either.
    EXPECT_EQ(w->verify(rt), "");
}

TEST(BTreeRecovery, CorruptNodeCountAbortsRecovery)
{
    // A crash image whose node count exceeds maxKeys: recovery once
    // indexed keys[]/child[] by it until the post-failure trace cap
    // tripped, which took minutes per point; it must abort at once as
    // a recovery failure instead. The image is made by hand: the root
    // node's count, its first field, is overwritten.
    WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 8;
    auto w = makeWorkload("btree", cfg);
    pm::PmPool pool(poolSize);
    trace::TraceBuffer pre;
    PmRuntime rt(pool, pre, trace::Stage::PreFailure);
    w->pre(rt);
    Addr root = *pmlib::ObjPool::open(rt, "btree").root<Addr>();
    *static_cast<std::uint64_t *>(pool.toHost(root)) = ~std::uint64_t{0};

    trace::TraceBuffer post;
    PmRuntime prt(pool, post, trace::Stage::PostFailure);
    try {
        w->post(prt);
        ADD_FAILURE() << "recovery accepted a corrupt node count";
    } catch (const trace::PostFailureAbort &abort) {
        EXPECT_EQ(abort.reason, "btree: corrupt node count");
    }
}

TEST(BTreeRemove, EmptiedPredecessorLeafRunsClean)
{
    // Removals never rebalance, so a leaf can run dry. This draw
    // removes an internal key whose predecessor leaf is empty; the
    // removal once stored a node count of 2^64-1 in the pre-failure
    // stage, and every later crash image failed recovery.
    WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 8;
    cfg.postOps = 2;
    cfg.seed = 330;
    auto res = xfdtest::runWorkload("btree", cfg);
    EXPECT_TRUE(xfdtest::hasNoFindings(res));

    auto w = makeWorkload("btree", cfg);
    pm::PmPool pool(poolSize);
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    w->pre(rt);
    EXPECT_EQ(w->verify(rt), "");
}

TEST(RBTreeRemove, SplicedRootStaysBlack)
{
    // This draw removes the root while it has one child and later
    // inserts below the child spliced in as root. A red root sent
    // fixupInsert to a null grandparent: a wild PM access in the
    // pre-failure stage that killed the campaign.
    WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 135;
    cfg.postOps = 2;
    cfg.seed = 355;
    auto res = xfdtest::runWorkload("rbtree", cfg);
    EXPECT_TRUE(xfdtest::hasNoFindings(res));

    auto w = makeWorkload("rbtree", cfg);
    pm::PmPool pool(poolSize);
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    w->pre(rt);
    EXPECT_EQ(w->verify(rt), "");
}

TEST(HashmapTxRebuild, GrowsBuckets)
{
    // 20 inserts cross the load factor threshold (8 buckets).
    WorkloadConfig cfg;
    cfg.initOps = 20;
    cfg.testOps = 5;
    auto w = makeWorkload("hashmap_tx", cfg);
    pm::PmPool pool(poolSize);
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    w->pre(rt);
    EXPECT_EQ(w->verify(rt), "");
}

} // namespace
