/**
 * @file
 * Multithreaded pre-failure programs (paper §7): "The frontend of
 * XFDetector is thread-safe... The concurrent threads in our
 * workloads perform PM operations on independent tasks." Two threads
 * update disjoint PM regions through one shared runtime; the campaign
 * must stay clean for correct protocols and catch a per-thread
 * missing-persist bug.
 */

#include <gtest/gtest.h>

#include <thread>

#include "core/driver.hh"
#include "pm/pool.hh"
#include "pmlib/atomic.hh"
#include "trace/runtime.hh"

namespace
{

using namespace xfd;
using core::BugType;
using trace::PmRuntime;

constexpr unsigned slotsPerThread = 4;
constexpr std::size_t regionStride = 8192;

std::uint64_t *
slotHost(pm::PmPool &pool, unsigned thread, unsigned slot)
{
    return pool.at<std::uint64_t>(thread * regionStride + slot * 128);
}

/**
 * Worker: failure-atomic updates confined to its own region (any slot
 * the post-failure stage reads unconditionally must be published
 * atomically — a plain store races at its own fence point). The buggy
 * variant publishes one slot with a bare, unpersisted store.
 */
void
threadBody(PmRuntime &rt, unsigned tid, bool skip_persist)
{
    for (unsigned i = 0; i < 12; i++) {
        auto *slot = slotHost(rt.pool(), tid, i % slotsPerThread);
        std::uint64_t v = tid * 1000 + i;
        bool last_slot = (i % slotsPerThread) == slotsPerThread - 1;
        // A scratch write with its own persist: creates real ordering
        // points between the atomic updates (a bare fence there would
        // be elided — nothing can change between two atomic stores).
        // The post-failure stage never reads the scratch slot.
        auto *scratch = slotHost(rt.pool(), tid, slotsPerThread);
        rt.store(*scratch, v);
        rt.persistBarrier(scratch, 8);
        if (skip_persist && last_slot)
            rt.store(*slot, v); // bug: never persisted
        else
            pmlib::atomicStore(rt, *slot, v);
    }
}

core::CampaignResult
runParallelPre(bool thread1_buggy)
{
    pm::PmPool pool(1 << 20);
    core::Driver driver(pool, {});
    return driver.run(
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            std::thread t0(threadBody, std::ref(rt), 0, false);
            std::thread t1(threadBody, std::ref(rt), 1, thread1_buggy);
            t0.join();
            t1.join();
        },
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            // Single-threaded recovery reads every slot.
            for (unsigned t = 0; t < 2; t++) {
                for (unsigned s = 0; s < slotsPerThread; s++)
                    (void)rt.load(*slotHost(rt.pool(), t, s));
            }
        });
}

TEST(Multithreaded, TraceCapturesBothThreads)
{
    pm::PmPool pool(1 << 20);
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    rt.roiBegin();
    std::thread t0(threadBody, std::ref(rt), 0, false);
    std::thread t1(threadBody, std::ref(rt), 1, false);
    t0.join();
    t1.join();
    rt.roiEnd();

    // Per iteration: scratch write + clwb + sfence, then LibCall +
    // write + clwb + sfence (atomicStore); 2 threads, 12 iterations,
    // plus the RoI pair.
    EXPECT_EQ(buf.size(), 2u + 2 * 12 * 7);
    // Sequence numbers must be dense despite concurrent emission.
    for (std::size_t i = 0; i < buf.size(); i++)
        EXPECT_EQ(buf[i].seq, i);
    // Both regions were written.
    EXPECT_EQ(*slotHost(pool, 0, 0), 0u * 1000 + 8);
    EXPECT_EQ(*slotHost(pool, 1, 0), 1u * 1000 + 8);
}

TEST(Multithreaded, IndependentTasksAreClean)
{
    auto res = runParallelPre(false);
    EXPECT_EQ(res.count(BugType::CrossFailureRace), 0u)
        << res.summary();
    EXPECT_GT(res.statistics().failurePoints, 0u);
}

TEST(Multithreaded, PerThreadMissingPersistDetected)
{
    auto res = runParallelPre(true);
    EXPECT_GE(res.count(BugType::CrossFailureRace), 1u)
        << res.summary();
    // The racy slot belongs to thread 1's region.
    bool in_thread1_region = false;
    for (const auto &b : res.findings()) {
        if (b.type == BugType::CrossFailureRace &&
            b.addr >= defaultPoolBase + regionStride &&
            b.addr < defaultPoolBase + 2 * regionStride) {
            in_thread1_region = true;
        }
    }
    EXPECT_TRUE(in_thread1_region) << res.summary();
}

} // namespace
