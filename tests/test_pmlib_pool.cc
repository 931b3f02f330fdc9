/**
 * @file
 * Object-pool lifecycle tests: create/validate/open/openOrCreate, root
 * object guarantees, and the §6.3.2 bug-4 campaign — a failure during
 * pool creation leaves metadata that open() rejects.
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "pmlib/objpool.hh"

namespace
{

using namespace xfd;
using core::BugType;
using pmlib::ObjPool;
using trace::PmRuntime;
using trace::Stage;

struct PoolTest : ::testing::Test
{
    PoolTest() : pool(1 << 21), rt(pool, buf, Stage::PreFailure) {}

    pm::PmPool pool;
    trace::TraceBuffer buf;
    PmRuntime rt;
};

TEST_F(PoolTest, CreateProducesValidPool)
{
    ObjPool::create(rt, "layout1", 128);
    EXPECT_TRUE(ObjPool::valid(rt, "layout1"));
    EXPECT_FALSE(ObjPool::valid(rt, "otherlayout"));
}

TEST_F(PoolTest, FreshPoolIsInvalid)
{
    EXPECT_FALSE(ObjPool::valid(rt, "layout1"));
}

TEST_F(PoolTest, RootIsZeroed)
{
    ObjPool op = ObjPool::create(rt, "layout1", 256);
    auto *r = op.root<std::uint8_t>();
    for (int i = 0; i < 256; i++)
        EXPECT_EQ(r[i], 0u);
    EXPECT_EQ(op.rootSize(), 256u);
}

TEST_F(PoolTest, OpenAfterCreateWorks)
{
    ObjPool::create(rt, "layout1", 64);
    ObjPool op = ObjPool::open(rt, "layout1");
    EXPECT_EQ(op.baseAddr(), pool.base());
}

TEST_F(PoolTest, CorruptedChecksumInvalidates)
{
    ObjPool::create(rt, "layout1", 64);
    auto *h = pool.at<pmlib::PoolHeader>(0);
    h->rootSize ^= 1; // corrupt a field under the checksum
    EXPECT_FALSE(ObjPool::valid(rt, "layout1"));
}

TEST_F(PoolTest, OpenOrCreateFormatsFreshPool)
{
    ObjPool op = ObjPool::openOrCreate(rt, "layout1", 64);
    EXPECT_TRUE(ObjPool::valid(rt, "layout1"));
    (void)op;
}

TEST_F(PoolTest, OpenOrCreateKeepsExistingData)
{
    ObjPool op = ObjPool::create(rt, "layout1", 64);
    auto *r = op.root<std::uint64_t>();
    rt.store(*r, std::uint64_t{99});
    rt.persistBarrier(r, 8);
    ObjPool again = ObjPool::openOrCreate(rt, "layout1", 64);
    EXPECT_EQ(*again.root<std::uint64_t>(), 99u);
}

TEST_F(PoolTest, PostFailureOpenOfInvalidPoolAborts)
{
    trace::TraceBuffer buf2;
    PmRuntime post_rt(pool, buf2, Stage::PostFailure);
    EXPECT_THROW(ObjPool::open(post_rt, "layout1"),
                 trace::PostFailureAbort);
}

// ------------------------------------------------------------------
// §6.3.2 bug 4: failure during pool creation.
// ------------------------------------------------------------------

core::CampaignResult
runCreateCampaign(bool fixed_recovery)
{
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    return driver.run(
        [&](PmRuntime &rt) {
            // Pool creation itself is the region under test.
            trace::RoiScope roi(rt);
            ObjPool::create(rt, "bug4", 64);
        },
        [&](PmRuntime &rt) {
            trace::RoiScope roi(rt);
            if (fixed_recovery) {
                ObjPool::openOrCreate(rt, "bug4", 64);
            } else {
                ObjPool::open(rt, "bug4"); // PMDK behaviour: fails
            }
        });
}

TEST(PoolCreateBug, AsShippedRecoveryCannotOpenHalfCreatedPool)
{
    auto res = runCreateCampaign(false);
    EXPECT_GE(res.count(BugType::RecoveryFailure), 1u) << res.summary();
    bool mentions_metadata = false;
    for (const auto &b : res.findings()) {
        if (b.note.find("incomplete pool metadata") != std::string::npos)
            mentions_metadata = true;
    }
    EXPECT_TRUE(mentions_metadata);
}

TEST(PoolCreateBug, OpenOrCreateRecoveryIsClean)
{
    auto res = runCreateCampaign(true);
    EXPECT_EQ(res.count(BugType::RecoveryFailure), 0u) << res.summary();
}

TEST(PoolCreateBug, LastFailurePointHasCompleteMetadata)
{
    // At the failure point before the final checksum persist the
    // header writes are already in the image; only earlier points see
    // incomplete metadata. So the as-shipped campaign must show both
    // failing and succeeding post-failure executions.
    auto res = runCreateCampaign(false);
    ASSERT_GE(res.statistics().failurePoints, 2u);
    std::size_t failures = 0;
    for (const auto &b : res.findings()) {
        if (b.type == BugType::RecoveryFailure)
            failures += b.occurrences;
    }
    EXPECT_LT(failures, res.statistics().failurePoints);
    EXPECT_GT(failures, 0u);
}

} // namespace
