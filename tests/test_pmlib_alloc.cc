/**
 * @file
 * Persistent-allocator tests: bump and free-list paths, atomic
 * allocation publishing, and the detector-visible uninitialized-
 * allocation semantics (§6.3.2 bug 2).
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "pmlib/objpool.hh"
#include "pmlib/tx.hh"

namespace
{

using namespace xfd;
using pmlib::ObjPool;
using trace::PmRuntime;
using trace::Stage;

struct AllocTest : ::testing::Test
{
    AllocTest() : pool(1 << 21), rt(pool, buf, Stage::PreFailure) {}

    ObjPool
    makePool()
    {
        return ObjPool::create(rt, "alloctest", 64);
    }

    pm::PmPool pool;
    trace::TraceBuffer buf;
    PmRuntime rt;
};

TEST_F(AllocTest, BumpAllocationReturnsDistinctBlocks)
{
    ObjPool op = makePool();
    Addr a = op.heap().palloc(100);
    Addr b = op.heap().palloc(100);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_GE(b, a + 100);
}

TEST_F(AllocTest, BlocksAreZeroed)
{
    ObjPool op = makePool();
    Addr a = op.heap().palloc(64);
    auto *p = static_cast<std::uint8_t *>(pool.toHost(a));
    for (int i = 0; i < 64; i++)
        EXPECT_EQ(p[i], 0u);
}

TEST_F(AllocTest, SizeRoundedUpAndRecorded)
{
    ObjPool op = makePool();
    Addr a = op.heap().palloc(5);
    EXPECT_EQ(op.heap().blockSize(a), 16u);
}

TEST_F(AllocTest, FreeListReuse)
{
    ObjPool op = makePool();
    Addr a = op.heap().palloc(128);
    std::size_t used = op.heap().bumpUsed();
    op.heap().pfree(a);
    Addr b = op.heap().palloc(64);
    EXPECT_EQ(b, a); // first fit reuses the freed block
    EXPECT_EQ(op.heap().bumpUsed(), used);
}

TEST_F(AllocTest, FreeListSkipsTooSmallBlocks)
{
    ObjPool op = makePool();
    Addr small = op.heap().palloc(16);
    Addr big = op.heap().palloc(256);
    op.heap().pfree(small);
    op.heap().pfree(big);
    Addr c = op.heap().palloc(200);
    EXPECT_EQ(c, big);
}

TEST_F(AllocTest, ExhaustionReturnsNull)
{
    ObjPool op = makePool();
    // Ask for more than the heap holds.
    Addr a = op.heap().palloc(pool.size());
    EXPECT_EQ(a, 0u);
}

TEST_F(AllocTest, AllocAtomicPublishesTarget)
{
    ObjPool op = makePool();
    auto *root = op.root<pm::PPtr<std::uint64_t>>();
    ASSERT_TRUE(op.heap().allocAtomic(*root, 64));
    EXPECT_FALSE(root->null());
    EXPECT_EQ(*root->get(pool), 0u);
}

TEST_F(AllocTest, AllocEmitsAnnotationAndImageOnlyZeroFill)
{
    ObjPool op = makePool();
    std::size_t before = buf.size();
    op.heap().palloc(32);
    bool saw_alloc = false, saw_zero = false;
    for (std::size_t i = before; i < buf.size(); i++) {
        if (buf[i].op == trace::Op::Alloc)
            saw_alloc = true;
        if (buf[i].isWrite() && buf[i].has(trace::flagImageOnly))
            saw_zero = true;
    }
    EXPECT_TRUE(saw_alloc);
    EXPECT_TRUE(saw_zero);
}

// ------------------------------------------------------------------
// Detector integration: relying on allocator zeroing is a race.
// ------------------------------------------------------------------

struct UninitCampaign
{
    /** When true, explicitly initialize (and persist) the counter. */
    bool initialize;

    void
    pre(PmRuntime &rt) const
    {
        ObjPool op = ObjPool::create(rt, "uninit", 64);
        trace::RoiScope roi(rt);
        auto *root = op.root<pm::PPtr<std::uint64_t>>();
        if (initialize) {
            // PMDK idiom: the constructor initializes the object
            // before it is published.
            op.heap().allocAtomic(
                *root, sizeof(std::uint64_t),
                [](PmRuntime &rt, std::uint64_t *counter) {
                    rt.store(*counter, std::uint64_t{0});
                });
        } else {
            op.heap().allocAtomic(*root, sizeof(std::uint64_t));
        }
        // One more ordering point so a failure can land after the
        // allocation completed.
        auto *pad = static_cast<std::uint64_t *>(
            rt.pool().toHost(op.rootAddr() + 8));
        rt.store(*pad, std::uint64_t{1});
        rt.persistBarrier(pad, 8);
    }

    void
    post(PmRuntime &rt) const
    {
        ObjPool op = ObjPool::open(rt, "uninit");
        trace::RoiScope roi(rt);
        auto *root = op.root<pm::PPtr<std::uint64_t>>();
        pm::PPtr<std::uint64_t> p = rt.load(*root);
        if (!p.null()) {
            // Reads the counter the allocator only implicitly zeroed.
            (void)rt.load(*p.get(rt.pool()));
        }
    }
};

TEST(AllocDetector, ReadingImplicitlyZeroedCounterIsRace)
{
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    UninitCampaign prog{false};
    auto res = driver.run([&](PmRuntime &rt) { prog.pre(rt); },
                          [&](PmRuntime &rt) { prog.post(rt); });
    EXPECT_GE(res.count(core::BugType::CrossFailureRace), 1u)
        << res.summary();
    bool uninit_note = false;
    for (const auto &b : res.findings()) {
        if (b.note.find("never initialized") != std::string::npos)
            uninit_note = true;
    }
    EXPECT_TRUE(uninit_note);
}

TEST(AllocDetector, ExplicitInitializationIsClean)
{
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    UninitCampaign prog{true};
    auto res = driver.run([&](PmRuntime &rt) { prog.pre(rt); },
                          [&](PmRuntime &rt) { prog.post(rt); });
    EXPECT_EQ(res.count(core::BugType::CrossFailureRace), 0u)
        << res.summary();
}

} // namespace
