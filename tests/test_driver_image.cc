/**
 * @file
 * Driver internals: the PM image the post-failure stage sees at
 * failure point F must equal initial-image + every recorded write
 * before F (paper footnote 3: the copy "contains all updates,
 * including those not persisted"). Verified against an independent
 * byte-level reconstruction for every failure point of a real
 * workload run.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/driver.hh"
#include "core/failure_planner.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;

TEST(DriverImage, PostStageSeesPrefixExactImage)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 3;
    cfg.testOps = 4;
    auto w = workloads::makeWorkload("hashmap_tx", cfg);

    pm::PmPool pool(1 << 22);
    pm::PmImage initial = pool.snapshot();

    // Capture what the post-failure stage actually sees, per failure
    // point, by hashing the pool at entry to post().
    std::vector<std::size_t> seen_hashes;
    auto hash_pool = [](pm::PmPool &p) {
        std::size_t h = 1469598103934665603ull;
        const std::uint8_t *b = p.data();
        for (std::size_t i = 0; i < p.size(); i += 7)
            h = (h ^ b[i]) * 1099511628211ull;
        return h;
    };

    trace::TraceBuffer pre_copy;
    core::Driver driver(pool, {});
    auto res = driver.run(
        [&](PmRuntime &rt) {
            w->pre(rt);
            // Keep a copy of the trace for the oracle (same pool, so
            // the driver's own trace is identical by determinism).
        },
        [&](PmRuntime &rt) { seen_hashes.push_back(hash_pool(rt.pool())); });
    ASSERT_EQ(seen_hashes.size(), res.statistics().failurePoints);

    // Oracle: re-run the pre stage on a fresh pool to regenerate the
    // identical trace, then reconstruct each prefix image by hand.
    pm::PmPool pool2(1 << 22);
    auto w2 = workloads::makeWorkload("hashmap_tx", cfg);
    trace::TraceBuffer pre;
    {
        PmRuntime rt(pool2, pre, trace::Stage::PreFailure);
        w2->pre(rt);
    }
    auto plan = core::planFailurePoints(pre, {});
    ASSERT_EQ(plan.points.size(), seen_hashes.size());

    pm::PmImage img = initial;
    std::uint32_t cursor = 0;
    for (std::size_t k = 0; k < plan.points.size(); k++) {
        for (; cursor < plan.points[k]; cursor++) {
            const auto &e = pre[cursor];
            if (e.isWrite())
                img.applyWrite(e.addr, e.data.data(), e.data.size());
        }
        pm::PmPool scratch(pool.size(), pool.base());
        img.copyTo(scratch);
        std::size_t expect = hash_pool(scratch);
        EXPECT_EQ(seen_hashes[k], expect) << "failure point " << k;
    }
}

TEST(DriverImage, UnpersistedWritesAreInTheImage)
{
    // Footnote 3 directly: a write with no flush at all must still be
    // visible to the post-failure stage (persistence is tracked by
    // the shadow PM, not by dropping bytes).
    pm::PmPool pool(1 << 20);
    std::vector<std::uint64_t> seen;
    core::Driver driver(pool, {});
    driver.run(
        [&](PmRuntime &rt) {
            auto *a = rt.pool().at<std::uint64_t>(0);
            auto *b = rt.pool().at<std::uint64_t>(64);
            trace::RoiScope roi(rt);
            rt.store(*a, std::uint64_t{0xaaaa}); // never persisted
            rt.store(*b, std::uint64_t{0xbbbb});
            rt.persistBarrier(b, 8);
        },
        [&](PmRuntime &rt) {
            seen.push_back(*rt.pool().at<std::uint64_t>(0));
        });
    ASSERT_FALSE(seen.empty());
    for (std::uint64_t v : seen)
        EXPECT_EQ(v, 0xaaaau);
}

TEST(DriverImage, CrashImageModeDropsUnpersistedWrites)
{
    // The extension's counterpart of footnote 3: under the durable
    // crash-states tier the post-failure stage sees only data that
    // was flushed AND fenced by the failure point.
    pm::PmPool pool(1 << 20);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    core::DetectorConfig dcfg;
    dcfg.crashStates = "durable";
    core::Driver driver(pool, dcfg);
    driver.run(
        [&](PmRuntime &rt) {
            auto *a = rt.pool().at<std::uint64_t>(0);
            auto *b = rt.pool().at<std::uint64_t>(64);
            trace::RoiScope roi(rt);
            rt.store(*a, std::uint64_t{0xaaaa}); // never persisted
            rt.store(*b, std::uint64_t{0xbbbb});
            rt.persistBarrier(b, 8);
            rt.store(*b, std::uint64_t{0xcccc}); // re-dirtied
            rt.clwb(b, 8);
            rt.sfence();
        },
        [&](PmRuntime &rt) {
            seen.emplace_back(*rt.pool().at<std::uint64_t>(0),
                              *rt.pool().at<std::uint64_t>(64));
        });
    ASSERT_GE(seen.size(), 2u);
    // First failure point (before b's first fence): nothing durable.
    EXPECT_EQ(seen[0].first, 0u);
    EXPECT_EQ(seen[0].second, 0u);
    // Second failure point (before b's second fence): a still absent,
    // b holds its first persisted value, not the pending re-dirty.
    EXPECT_EQ(seen[1].first, 0u);
    EXPECT_EQ(seen[1].second, 0xbbbbu);
}

TEST(DriverImage, DurableTierDropsStoreAfterLineFlush)
{
    // Durability is per cell, not per line: a store that lands in a
    // line after the line's writeback started is not covered by that
    // writeback, so the fence after it persists only the flushed
    // cell. A line-granular image would copy the whole line.
    pm::PmPool pool(1 << 20);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    core::DetectorConfig dcfg;
    dcfg.crashStates = "durable";
    core::Driver driver(pool, dcfg);
    driver.run(
        [&](PmRuntime &rt) {
            auto *a = rt.pool().at<std::uint64_t>(0);
            auto *b = rt.pool().at<std::uint64_t>(8); // a's line
            auto *c = rt.pool().at<std::uint64_t>(128);
            trace::RoiScope roi(rt);
            rt.store(*a, std::uint64_t{0xaaaa});
            rt.clwb(a, 8);
            rt.store(*b, std::uint64_t{0xbbbb}); // after the flush
            rt.sfence();
            rt.store(*c, std::uint64_t{0xcccc});
            rt.sfence();
        },
        [&](PmRuntime &rt) {
            seen.emplace_back(*rt.pool().at<std::uint64_t>(0),
                              *rt.pool().at<std::uint64_t>(8));
        });
    ASSERT_GE(seen.size(), 2u);
    // At the later failure point a is durable, b's store is not.
    EXPECT_EQ(seen.back().first, 0xaaaau);
    EXPECT_EQ(seen.back().second, 0u);
}

TEST(DriverImage, CleanWorkloadsSurviveRealCrashImages)
{
    // Crash-consistent programs must recover from *realistic* crash
    // images too, not just the keep-everything copy.
    for (const char *name : {"btree", "hashmap_atomic", "redis"}) {
        workloads::WorkloadConfig cfg;
        cfg.initOps = 4;
        cfg.testOps = 5;
        cfg.postOps = 3;
        auto w = workloads::makeWorkload(name, cfg);
        pm::PmPool pool(1 << 22);
        core::DetectorConfig dcfg;
        dcfg.crashStates = "durable";
        core::Driver driver(pool, dcfg);
        auto res =
            driver.run([&](PmRuntime &rt) { w->pre(rt); },
                       [&](PmRuntime &rt) { w->post(rt); });
        EXPECT_EQ(res.count(core::BugType::CrossFailureRace), 0u)
            << name << "\n"
            << res.summary();
        EXPECT_EQ(res.count(core::BugType::RecoveryFailure), 0u)
            << name << "\n"
            << res.summary();
    }
}

TEST(DriverImage, BugStillDetectedInCrashImageMode)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 6;
    cfg.testOps = 8;
    cfg.postOps = 4;
    cfg.bugs.enable("btree.race.leaf_no_add");
    auto w = workloads::makeWorkload("btree", cfg);
    pm::PmPool pool(1 << 22);
    core::DetectorConfig dcfg;
    dcfg.crashStates = "durable";
    core::Driver driver(pool, dcfg);
    auto res = driver.run([&](PmRuntime &rt) { w->pre(rt); },
                          [&](PmRuntime &rt) { w->post(rt); });
    EXPECT_GE(res.count(core::BugType::CrossFailureRace), 1u)
        << res.summary();
}

TEST(DriverImage, MaxFailurePointsCapsExecutions)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 2;
    cfg.testOps = 6;
    auto w = workloads::makeWorkload("btree", cfg);
    pm::PmPool pool(1 << 22);
    core::DetectorConfig dcfg;
    dcfg.maxFailurePoints = 5;
    core::Driver driver(pool, dcfg);
    auto res =
        driver.run([&](PmRuntime &rt) { w->pre(rt); },
                   [&](PmRuntime &rt) { w->post(rt); });
    EXPECT_EQ(res.statistics().failurePoints, 5u);
    EXPECT_EQ(res.statistics().postExecutions, 5u);
}

} // namespace
