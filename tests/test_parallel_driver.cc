/**
 * @file
 * Parallel detection tests — the paper's named future work ("the
 * post-failure executions are independent... and therefore, can be
 * parallelized", §6.2.1). The parallel driver must produce exactly
 * the findings of the serial run, for clean and buggy programs alike.
 */

#include <gtest/gtest.h>

#include "bugsuite/registry.hh"
#include "harness.hh"

namespace
{

using namespace xfd;
using core::BugType;
using core::CampaignResult;
using core::Driver;
using trace::PmRuntime;
using workloads::makeWorkload;
using workloads::WorkloadConfig;
using xfdtest::fingerprint;

CampaignResult
runWorkload(const std::string &name, const WorkloadConfig &cfg,
            unsigned threads)
{
    xfdtest::RunOptions opt;
    opt.threads = threads;
    return xfdtest::runWorkload(name, cfg, opt);
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ParallelEquivalence, CleanWorkloadSameFindings)
{
    WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 6;
    cfg.postOps = 3;
    auto serial = runWorkload(GetParam(), cfg, 1);
    auto par = runWorkload(GetParam(), cfg, 4);
    EXPECT_EQ(fingerprint(serial), fingerprint(par));
    EXPECT_EQ(serial.statistics().failurePoints,
              par.statistics().failurePoints);
    EXPECT_EQ(serial.statistics().postExecutions,
              par.statistics().postExecutions);
    EXPECT_EQ(par.statistics().threads, 4u);

    // Accounting must merge exactly across workers: each worker's
    // shadow counts its own chunk's checks, and elision happens once
    // in the shared plan.
    EXPECT_EQ(serial.statistics().checksPerformed,
              par.statistics().checksPerformed);
    EXPECT_EQ(serial.statistics().checksSkipped,
              par.statistics().checksSkipped);
    EXPECT_EQ(serial.statistics().elidedPoints, par.statistics().elidedPoints);
    EXPECT_EQ(serial.statistics().orderingCandidates,
              par.statistics().orderingCandidates);
    EXPECT_EQ(serial.statistics().preTraceEntries,
              par.statistics().preTraceEntries);
    EXPECT_EQ(serial.statistics().postTraceEntries,
              par.statistics().postTraceEntries);
}

INSTANTIATE_TEST_SUITE_P(Micro, ParallelEquivalence,
                         ::testing::Values("btree", "hashmap_tx",
                                           "hashmap_atomic"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n) {
                                 if (c == '_')
                                     c = 'X';
                             }
                             return n;
                         });

TEST(ParallelDriver, BuggyCampaignsMatchSerial)
{
    const char *const ids[] = {
        "btree.race.leaf_no_add",
        "hashmap_atomic.sem.no_recount",
        "hashmap_tx.race.slot_no_add",
    };
    for (const char *id : ids) {
        for (const auto &c : bugsuite::allBugCases()) {
            if (c.id != id)
                continue;
            SCOPED_TRACE(id);
            auto serial = bugsuite::runBugCase(c);

            // Re-run the same campaign through the parallel path.
            workloads::WorkloadConfig wcfg;
            wcfg.initOps = c.initOps;
            wcfg.testOps = c.testOps;
            wcfg.postOps = c.postOps;
            wcfg.roiFromStart = c.roiFromStart;
            wcfg.bugs.enable(c.id);
            auto w = makeWorkload(c.workload, std::move(wcfg));
            xfdtest::RunOptions opt;
            opt.threads = 3;
            auto par = xfdtest::runCampaign(
                [&](PmRuntime &rt) { w->pre(rt); },
                [&](PmRuntime &rt) { w->post(rt); }, opt);
            EXPECT_EQ(fingerprint(serial), fingerprint(par));
            EXPECT_TRUE(bugsuite::detected(c, par));
        }
    }
}

TEST(ParallelDriver, MoreThreadsThanPointsIsFine)
{
    WorkloadConfig cfg;
    cfg.initOps = 0;
    cfg.testOps = 1;
    auto res = runWorkload("btree", cfg, 64);
    EXPECT_EQ(res.statistics().postExecutions, res.statistics().failurePoints);
}

TEST(ParallelDriver, ZeroThreadsMeansSerial)
{
    WorkloadConfig cfg;
    cfg.initOps = 2;
    cfg.testOps = 2;
    auto w = makeWorkload("ctree", cfg);
    xfdtest::RunOptions opt;
    opt.threads = 0;
    auto res = xfdtest::runCampaign(
        [&](PmRuntime &rt) { w->pre(rt); },
        [&](PmRuntime &rt) { w->post(rt); }, opt);
    EXPECT_EQ(res.statistics().threads, 1u);
    EXPECT_GT(res.statistics().postExecutions, 0u);
}

TEST(ParallelDriver, PoolHoldsFinalStateAfterParallelRun)
{
    WorkloadConfig cfg;
    cfg.initOps = 4;
    cfg.testOps = 4;
    auto w = makeWorkload("rbtree", cfg);
    pm::PmPool pool(1 << 22);
    Driver driver(pool, {});
    (void)driver.runParallel([&](PmRuntime &rt) { w->pre(rt); },
                             [&](PmRuntime &rt) { w->post(rt); }, 4);
    // The pool must hold the final pre-failure contents: verify()
    // checks the structure against the reference model.
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    EXPECT_EQ(w->verify(rt), "");
}

} // namespace
