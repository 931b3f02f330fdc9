/**
 * @file
 * Recall tier for --crash-states: the ring-log bug-suite entries are
 * constructed so their defects live only on *partial* crash images
 * (paired stores inside one fence epoch — the all-updates anchor
 * image never tears them). sample:<n> and exhaustive must find them,
 * anchor mode must not, and every clean workload must stay
 * finding-free with exploration enabled under both persistency
 * models.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "harness.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using xfdtest::RunOptions;

std::vector<bugsuite::BugCase>
ringlogCases()
{
    std::vector<bugsuite::BugCase> cases =
        bugsuite::bugCasesFor("ringlog");
    EXPECT_GE(cases.size(), 2u);
    return cases;
}

TEST(CrashStatesRecall, AnchorModeMissesPartialImageBugs)
{
    for (const auto &c : ringlogCases()) {
        SCOPED_TRACE(c.id);
        EXPECT_EQ(c.crashStates, "sample:64");
        core::DetectorConfig cfg;
        cfg.crashStates = "anchor"; // pin anchor: no overlay
        core::CampaignResult res = bugsuite::runBugCase(c, cfg);
        EXPECT_FALSE(bugsuite::detected(c, res)) << res.summary();
        EXPECT_TRUE(xfdtest::hasNoFindings(res));
    }
}

TEST(CrashStatesRecall, SampledExplorationFindsPartialImageBugs)
{
    for (const auto &c : ringlogCases()) {
        SCOPED_TRACE(c.id);
        // Default config: runBugCase applies the case's own
        // crash-states tier (sample:64).
        core::CampaignResult res = bugsuite::runBugCase(c);
        EXPECT_TRUE(bugsuite::detected(c, res)) << res.summary();
        // The finding's provenance is a partial image: a proper
        // subset of the frontier persisted.
        EXPECT_GT(res.partialImageFindings(), 0u) << res.summary();
        EXPECT_GT(res.statistics().crashStatesExplored, 0u);
    }
}

TEST(CrashStatesRecall, ExhaustiveExplorationFindsPartialImageBugs)
{
    for (const auto &c : ringlogCases()) {
        SCOPED_TRACE(c.id);
        core::DetectorConfig cfg;
        cfg.crashStates = "exhaustive";
        core::CampaignResult res = bugsuite::runBugCase(c, cfg);
        EXPECT_TRUE(bugsuite::detected(c, res)) << res.summary();
        EXPECT_GT(res.partialImageFindings(), 0u) << res.summary();
    }
}

TEST(CrashStatesRecall, CleanWorkloadsStayCleanUnderExploration)
{
    for (const std::string &name : workloads::workloadNames()) {
        for (const char *model : {"clwb", "eadr"}) {
            SCOPED_TRACE(name + "/" + model);
            workloads::WorkloadConfig wcfg;
            wcfg.initOps = 2;
            wcfg.testOps = 8;
            wcfg.postOps = 3;
            if (name == "memcached")
                wcfg.memcachedCapacity = 8;
            RunOptions opt;
            opt.detector.crashStates = "sample:16";
            opt.detector.pmModel = model;
            core::CampaignResult res =
                xfdtest::runWorkload(name, wcfg, opt);
            EXPECT_TRUE(xfdtest::hasNoFindings(res));
        }
    }
}

} // namespace
