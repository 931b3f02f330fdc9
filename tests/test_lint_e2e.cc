/**
 * @file
 * Whole-pipeline coverage for xfd-lint: the paper's two
 * performance-bug classes found statically across the bug suite,
 * pruning preserving the exact finding set over every workload and
 * every bug-suite entry, serial/parallel lint identity, a seeded fuzz
 * sweep over random campaign configurations (XFD_FUZZ_SEED replays),
 * and the oracle re-checking every pruned point at full agreement.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "common/rng.hh"
#include "core/failure_planner.hh"
#include "harness.hh"
#include "lint/lint.hh"
#include "obs/json.hh"
#include "oracle/diff.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using lint::LintReport;
using lint::Rule;
using trace::PmRuntime;
using trace::TraceBuffer;
using xfdtest::RunOptions;

/** Small-scale config keeping the sweeps fast. */
workloads::WorkloadConfig
smallConfig(const std::string &name)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 3;
    wcfg.testOps = 3;
    if (name == "memcached")
        wcfg.memcachedCapacity = 8;
    return wcfg;
}

/**
 * Pre-failure trace of one campaign over @p wcfg. A single failure
 * point is enough: the trace is complete before injection starts.
 */
TraceBuffer
captureTrace(const std::string &workload,
             workloads::WorkloadConfig wcfg, unsigned threads = 1)
{
    struct Capture : core::CampaignHooks
    {
        TraceBuffer captured;
        void
        onPreTraceReady(const TraceBuffer &b) override
        {
            captured = b;
        }
    } capture;
    core::CampaignObserver obs;
    obs.hooks = &capture;
    RunOptions opt;
    opt.observer = &obs;
    opt.threads = threads;
    opt.detector.maxFailurePoints = 1;
    xfdtest::runWorkload(workload, std::move(wcfg), opt);
    return capture.captured;
}

/** Lint @p buf with the planner's failure points supplied. */
LintReport
lintWithPlan(const TraceBuffer &buf)
{
    core::DetectorConfig dcfg;
    core::FailurePlan plan = core::planFailurePoints(buf, dcfg);
    lint::LintConfig lcfg;
    return lint::runLint(buf, lcfg, &plan.points);
}

TEST(LintE2E, CleanWorkloadsLintClean)
{
    // The stock (bug-free) workloads follow the write->flush->fence
    // discipline; the lint pass must not cry wolf on them.
    for (const std::string &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        TraceBuffer buf = captureTrace(name, smallConfig(name));
        ASSERT_FALSE(buf.empty());
        LintReport rep = lintWithPlan(buf);
        EXPECT_EQ(rep.diagnostics.size(), 0u)
            << lint::renderText(rep);
    }
}

TEST(LintE2E, PaperPerfBugClassesFoundStatically)
{
    // Table 5's two performance-bug classes — duplicated TX_ADD and
    // redundant flush — must fall out of the static pass alone, with
    // no post-failure execution, on every suite entry of those
    // classes.
    std::size_t swept = 0;
    for (const auto &c : bugsuite::allBugCases()) {
        if (c.expected != bugsuite::Expected::Performance)
            continue;
        SCOPED_TRACE(c.id);
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = c.initOps;
        wcfg.testOps = c.testOps;
        wcfg.postOps = c.postOps;
        wcfg.roiFromStart = c.roiFromStart;
        if (c.workload == "memcached")
            wcfg.memcachedCapacity = 8;
        wcfg.bugs.enable(c.id);
        TraceBuffer buf = captureTrace(c.workload, std::move(wcfg));
        LintReport rep = lintWithPlan(buf);

        bool duplicateAddClass =
            c.id.find(".double_add") != std::string::npos;
        Rule expected = duplicateAddClass ? Rule::DuplicateTxAdd
                                          : Rule::RedundantWriteback;
        EXPECT_GT(rep.count(expected), 0u)
            << "expected " << lint::ruleId(expected) << " for " << c.id
            << "\n"
            << lint::renderText(rep);
        swept++;
    }
    EXPECT_GE(swept, 8u); // the suite's performance entries
}

TEST(LintE2E, SerialAndParallelCampaignsLintIdentically)
{
    TraceBuffer serial = captureTrace("btree", smallConfig("btree"), 1);
    TraceBuffer parallel =
        captureTrace("btree", smallConfig("btree"), 4);

    LintReport a = lintWithPlan(serial);
    LintReport b = lintWithPlan(parallel);
    EXPECT_EQ(lint::renderText(a), lint::renderText(b));

    std::ostringstream ja, jb;
    {
        obs::JsonWriter w(ja);
        lint::writeLintJson(a, w);
    }
    {
        obs::JsonWriter w(jb);
        lint::writeLintJson(b, w);
    }
    EXPECT_EQ(ja.str(), jb.str());
}

/** Campaign over @p wcfg, with or without signature batching. */
core::CampaignResult
runPruned(const std::string &workload,
          const workloads::WorkloadConfig &wcfg, bool prune,
          unsigned threads = 2)
{
    RunOptions opt;
    opt.threads = threads;
    opt.detector.backend = prune ? "batched" : "delta";
    return xfdtest::runWorkload(workload, wcfg, opt);
}

TEST(LintE2E, PruningPreservesFindingsAcrossWorkloads)
{
    // The acceptance bar: identical finding fingerprints with and
    // without pruning on all workloads, and at least a 20% prune rate
    // on two of them.
    std::size_t deepPrunes = 0;
    for (const std::string &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        workloads::WorkloadConfig wcfg = smallConfig(name);
        core::CampaignResult off = runPruned(name, wcfg, false);
        core::CampaignResult on = runPruned(name, wcfg, true);

        EXPECT_EQ(off.statistics().lintPrunedPoints, 0u);
        // ringlog's frontier signatures embed its monotonically
        // increasing counters, so no two failure points fold.
        if (name != "ringlog") {
            EXPECT_GT(on.statistics().lintPrunedPoints, 0u);
        }
        EXPECT_EQ(xfdtest::fingerprint(off), xfdtest::fingerprint(on))
            << "pruned campaign changed the finding set\n"
            << off.summary() << on.summary();

        std::size_t total =
            on.statistics().failurePoints + on.statistics().lintPrunedPoints;
        ASSERT_GT(total, 0u);
        if (static_cast<double>(on.statistics().lintPrunedPoints) /
                static_cast<double>(total) >=
            0.2) {
            deepPrunes++;
        }
    }
    EXPECT_GE(deepPrunes, 2u);
}

TEST(LintE2E, PruningPreservesFindingsAcrossBugSuite)
{
    // Every synthetic defect: the pruned campaign must report exactly
    // the findings the full campaign reports — the planted bug is
    // never lost to a pruned point.
    for (const auto &c : bugsuite::allBugCases()) {
        SCOPED_TRACE(c.id.empty() ? c.workload : c.id);
        core::DetectorConfig off;
        core::CampaignResult full = bugsuite::runBugCase(c, off);

        core::DetectorConfig on;
        on.backend = "batched";
        core::CampaignResult pruned = bugsuite::runBugCase(c, on);

        EXPECT_EQ(xfdtest::fingerprint(full),
                  xfdtest::fingerprint(pruned))
            << full.summary() << pruned.summary();
        EXPECT_EQ(bugsuite::detected(c, full),
                  bugsuite::detected(c, pruned));
    }
}

void
fuzzOne(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> names = workloads::workloadNames();
    const std::string name = names[rng.below(names.size())];
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 1 + static_cast<unsigned>(rng.below(6));
    wcfg.testOps = 1 + static_cast<unsigned>(rng.below(6));
    wcfg.postOps = 1 + static_cast<unsigned>(rng.below(4));
    wcfg.seed = rng.next();
    if (name == "memcached")
        wcfg.memcachedCapacity = 8;

    core::CampaignResult off = runPruned(name, wcfg, false);
    core::CampaignResult on = runPruned(name, wcfg, true);
    EXPECT_EQ(xfdtest::fingerprint(off), xfdtest::fingerprint(on))
        << name << " XFD_FUZZ_SEED=" << seed << "\n"
        << off.summary() << on.summary();
}

TEST(LintFuzz, RandomCampaignsPruneSafely)
{
    for (std::uint64_t seed = 1; seed <= 10; seed++) {
        SCOPED_TRACE(seed);
        fuzzOne(seed);
    }
}

TEST(LintFuzzReplay, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP()
            << "set XFD_FUZZ_SEED=<seed from a failure message> to "
               "replay a single fuzz campaign";
    fuzzOne(s);
}

TEST(LintOracle, PrunedPointsRecheckedAtFullAgreement)
{
    // The prune rule's ground truth: the oracle runs every pruned
    // point for real and compares against the kept representative's
    // classes; any disagreement falsifies the static rule.
    for (const std::string name : {"btree", "hashmap_atomic"}) {
        SCOPED_TRACE(name);
        std::shared_ptr<workloads::Workload> w =
            workloads::makeWorkload(name, smallConfig(name));
        pm::PmPool pool(xfdtest::defaultPoolBytes);
        oracle::DiffConfig cfg;
        cfg.detector.backend = "batched";
        oracle::DiffReport rep = oracle::runDifferentialCampaign(
            pool, [w](PmRuntime &rt) { w->pre(rt); },
            [w](PmRuntime &rt) { w->post(rt); }, cfg);

        EXPECT_GT(rep.prunedRechecked, 0u);
        EXPECT_EQ(rep.disagreements, 0u) << rep.summary();
        EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0);
    }
}

TEST(LintOracle, RechecksExactlyTheFoldedPointsUnderEveryModel)
{
    // The oracle must derive the detector's grouping, persistency
    // model included: a point it does not know was folded is checked
    // against a detector run that never happened.
    for (const std::string name : {"btree", "hashmap_atomic"}) {
        for (const char *model : {"clwb", "eadr"}) {
            SCOPED_TRACE(name + " " + model);
            std::shared_ptr<workloads::Workload> w =
                workloads::makeWorkload(name, smallConfig(name));
            pm::PmPool pool(xfdtest::defaultPoolBytes);
            oracle::DiffConfig cfg;
            cfg.detector.backend = "batched";
            cfg.detector.pmModel = model;
            oracle::DiffReport rep = oracle::runDifferentialCampaign(
                pool, [w](PmRuntime &rt) { w->pre(rt); },
                [w](PmRuntime &rt) { w->post(rt); }, cfg);

            EXPECT_GT(rep.prunedRechecked, 0u);
            EXPECT_EQ(rep.prunedRechecked,
                      rep.detector.statistics().lintPrunedPoints);
            EXPECT_EQ(rep.disagreements, 0u) << rep.summary();
        }
    }
}

} // namespace
