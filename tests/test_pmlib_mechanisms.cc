/**
 * @file
 * Tests for the additional Table 1 crash-consistency mechanisms:
 * redo logging, checkpointing, operational logging and shadow paging.
 * Each mechanism gets functional tests plus detection campaigns — the
 * correct protocol must be clean under failure injection, and a
 * seeded protocol violation must be caught.
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "pmlib/checkpoint.hh"
#include "pmlib/objpool.hh"
#include "pmlib/oplog.hh"
#include "pmlib/redo.hh"
#include "pmlib/shadow_obj.hh"

namespace
{

using namespace xfd;
using core::BugType;
using pmlib::Checkpointer;
using pmlib::LoggedOp;
using pmlib::ObjPool;
using pmlib::OpLog;
using pmlib::RedoTx;
using trace::PmRuntime;
using trace::Stage;

struct MechTest : ::testing::Test
{
    MechTest() : pool(1 << 21), rt(pool, buf, Stage::PreFailure) {}

    ObjPool
    makePool()
    {
        return ObjPool::create(rt, "mech", 256);
    }

    pm::PmPool pool;
    trace::TraceBuffer buf;
    PmRuntime rt;
};

// ------------------------------------------------------------------
// Redo logging
// ------------------------------------------------------------------

TEST_F(MechTest, RedoCommitAppliesStagedWrites)
{
    ObjPool op = makePool();
    Addr area = op.heap().palloc(RedoTx::areaSize());
    auto *x = op.root<std::uint64_t>();
    {
        RedoTx tx(op, area);
        tx.stageField(*x, std::uint64_t{7});
        EXPECT_EQ(*x, 0u); // nothing in place before commit
        tx.commit();
    }
    EXPECT_EQ(*x, 7u);
}

TEST_F(MechTest, RedoAbortLeavesDataUntouched)
{
    ObjPool op = makePool();
    Addr area = op.heap().palloc(RedoTx::areaSize());
    auto *x = op.root<std::uint64_t>();
    {
        RedoTx tx(op, area);
        tx.stageField(*x, std::uint64_t{7});
        tx.abort();
    }
    EXPECT_EQ(*x, 0u);
}

TEST_F(MechTest, RedoDestructorAborts)
{
    ObjPool op = makePool();
    Addr area = op.heap().palloc(RedoTx::areaSize());
    auto *x = op.root<std::uint64_t>();
    {
        RedoTx tx(op, area);
        tx.stageField(*x, std::uint64_t{7});
    }
    EXPECT_EQ(*x, 0u);
}

TEST_F(MechTest, RedoRecoverReappliesSealedLog)
{
    ObjPool op = makePool();
    Addr area = op.heap().palloc(RedoTx::areaSize());
    auto *x = op.root<std::uint64_t>();
    {
        RedoTx tx(op, area);
        tx.stageField(*x, std::uint64_t{9});
        tx.commit();
    }
    // Simulate a crash right after the seal: re-seal manually.
    auto *a = static_cast<pmlib::RedoArea *>(pool.toHost(area));
    a->sealedCount = 1;
    *x = 0; // pretend the home write was lost
    RedoTx::recover(op, area);
    EXPECT_EQ(*x, 9u);
    EXPECT_EQ(a->sealedCount, 0u);
}

TEST_F(MechTest, RedoLargeRangeChunks)
{
    ObjPool op = makePool();
    Addr area = op.heap().palloc(RedoTx::areaSize());
    Addr blob = op.heap().palloc(1024);
    std::vector<std::uint8_t> payload(1024, 0x5a);
    {
        RedoTx tx(op, area);
        tx.stage(pool.toHost(blob), payload.data(), payload.size());
        tx.commit();
    }
    auto *p = static_cast<std::uint8_t *>(pool.toHost(blob));
    EXPECT_EQ(p[0], 0x5au);
    EXPECT_EQ(p[1023], 0x5au);
}

TEST(RedoDetector, CorrectRedoProtocolIsClean)
{
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    auto res = driver.run(
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::create(rt, "redo", 64);
            Addr area = op.heap().palloc(RedoTx::areaSize());
            auto *root = op.root<std::uint64_t>();
            rt.store(*root, area); // remember the area address
            rt.persistBarrier(root, 8);
            trace::RoiScope roi(rt);
            auto *x = op.root<std::uint64_t[4]>();
            for (int i = 1; i <= 2; i++) {
                RedoTx tx(op, area);
                tx.stageField((*x)[1],
                              static_cast<std::uint64_t>(i * 10));
                tx.stageField((*x)[2],
                              static_cast<std::uint64_t>(i * 20));
                tx.commit();
            }
        },
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::openOrCreate(rt, "redo", 64);
            trace::RoiScope roi(rt);
            auto *root = op.root<std::uint64_t>();
            Addr area = *root; // volatile bookkeeping read
            if (area) {
                RedoTx::recover(op, area);
                auto *x = op.root<std::uint64_t[4]>();
                (void)rt.load((*x)[1]);
                (void)rt.load((*x)[2]);
            }
        });
    EXPECT_EQ(res.count(BugType::CrossFailureRace), 0u)
        << res.summary();
    EXPECT_GT(res.statistics().failurePoints, 0u);
}

TEST(RedoDetector, InPlaceWriteBesideRedoLogRaces)
{
    // Violation: one field updated in place (unlogged, unflushed)
    // while the rest goes through the redo log.
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    auto res = driver.run(
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::create(rt, "redo2", 64);
            Addr area = op.heap().palloc(RedoTx::areaSize());
            auto *root = op.root<std::uint64_t>();
            rt.store(*root, area);
            rt.persistBarrier(root, 8);
            trace::RoiScope roi(rt);
            auto *x = op.root<std::uint64_t[4]>();
            RedoTx tx(op, area);
            tx.stageField((*x)[1], std::uint64_t{10});
            rt.store((*x)[2], std::uint64_t{20}); // in place, no persist
            tx.commit();
        },
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::openOrCreate(rt, "redo2", 64);
            trace::RoiScope roi(rt);
            auto *root = op.root<std::uint64_t>();
            Addr area = *root;
            if (area) {
                RedoTx::recover(op, area);
                auto *x = op.root<std::uint64_t[4]>();
                (void)rt.load((*x)[1]);
                (void)rt.load((*x)[2]);
            }
        });
    EXPECT_GE(res.count(BugType::CrossFailureRace), 1u)
        << res.summary();
}

// ------------------------------------------------------------------
// Checkpointing
// ------------------------------------------------------------------

struct CkptTest : MechTest
{
    static constexpr std::size_t dataSize = 64;
};

TEST_F(CkptTest, FormatSnapshotsInitialData)
{
    ObjPool op = makePool();
    Addr data = op.heap().palloc(dataSize);
    Addr area = op.heap().palloc(Checkpointer::areaSize(dataSize));
    auto *d = static_cast<std::uint64_t *>(pool.toHost(data));
    rt.store(d[0], std::uint64_t{11});
    Checkpointer ck(op, area, data, dataSize);
    ck.format();
    EXPECT_EQ(ck.generation(), 0u);
    auto *slot0 =
        static_cast<std::uint64_t *>(pool.toHost(ck.slotAddr(0)));
    EXPECT_EQ(slot0[0], 11u);
}

TEST_F(CkptTest, CheckpointAlternatesSlots)
{
    ObjPool op = makePool();
    Addr data = op.heap().palloc(dataSize);
    Addr area = op.heap().palloc(Checkpointer::areaSize(dataSize));
    auto *d = static_cast<std::uint64_t *>(pool.toHost(data));
    Checkpointer ck(op, area, data, dataSize);
    ck.format();

    rt.store(d[0], std::uint64_t{1});
    ck.checkpoint(); // gen 1 -> slot 1
    rt.store(d[0], std::uint64_t{2});
    ck.checkpoint(); // gen 2 -> slot 0
    EXPECT_EQ(ck.generation(), 2u);
    auto *slot0 =
        static_cast<std::uint64_t *>(pool.toHost(ck.slotAddr(0)));
    auto *slot1 =
        static_cast<std::uint64_t *>(pool.toHost(ck.slotAddr(1)));
    EXPECT_EQ(slot0[0], 2u);
    EXPECT_EQ(slot1[0], 1u);
}

TEST_F(CkptTest, RestoreBringsBackLastCommitted)
{
    ObjPool op = makePool();
    Addr data = op.heap().palloc(dataSize);
    Addr area = op.heap().palloc(Checkpointer::areaSize(dataSize));
    auto *d = static_cast<std::uint64_t *>(pool.toHost(data));
    Checkpointer ck(op, area, data, dataSize);
    ck.format();
    rt.store(d[0], std::uint64_t{5});
    ck.checkpoint();
    rt.store(d[0], std::uint64_t{99}); // scribble after the checkpoint
    ck.restore();
    EXPECT_EQ(d[0], 5u);
}

TEST(CkptDetector, ReadingOlderCheckpointIsSemanticBug)
{
    // §2's checkpointing example: "reading from older checkpoints
    // during the post-failure stage violates the semantics".
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    constexpr std::size_t dsz = 64;
    auto res = driver.run(
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::create(rt, "ckpt", 64);
            Addr data = op.heap().palloc(dsz);
            Addr area = op.heap().palloc(Checkpointer::areaSize(dsz));
            auto *root = op.root<std::uint64_t[2]>();
            rt.store((*root)[0], data);
            rt.store((*root)[1], area);
            rt.persistBarrier(root, 16);
            Checkpointer ck(op, area, data, dsz);
            ck.annotate();
            ck.format();
            trace::RoiScope roi(rt);
            auto *d = static_cast<std::uint64_t *>(rt.pool().toHost(data));
            rt.store(d[0], std::uint64_t{1});
            rt.persistBarrier(&d[0], 8);
            ck.checkpoint(); // gen 1
            rt.store(d[0], std::uint64_t{2});
            rt.persistBarrier(&d[0], 8);
            ck.checkpoint(); // gen 2
        },
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::openOrCreate(rt, "ckpt", 64);
            trace::RoiScope roi(rt);
            auto *root = op.root<std::uint64_t[2]>();
            Addr data = (*root)[0];
            Addr area = (*root)[1];
            if (!data || !area)
                return;
            Checkpointer ck(op, area, data, dsz);
            ck.annotate();
            // BUG: recovery reads the *older* slot instead of the one
            // the committed generation names.
            std::uint64_t gen = ck.generation();
            unsigned older = static_cast<unsigned>((gen + 1) & 1);
            auto *slot = static_cast<std::uint64_t *>(
                rt.pool().toHost(ck.slotAddr(older)));
            (void)rt.load(slot[0]);
        });
    EXPECT_GE(res.count(BugType::CrossFailureSemantic), 1u)
        << res.summary();
}

TEST(CkptDetector, CorrectRestoreIsClean)
{
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    constexpr std::size_t dsz = 64;
    auto res = driver.run(
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::create(rt, "ckpt2", 64);
            Addr data = op.heap().palloc(dsz);
            Addr area = op.heap().palloc(Checkpointer::areaSize(dsz));
            auto *root = op.root<std::uint64_t[2]>();
            rt.store((*root)[0], data);
            rt.store((*root)[1], area);
            rt.persistBarrier(root, 16);
            Checkpointer ck(op, area, data, dsz);
            ck.annotate();
            ck.format();
            trace::RoiScope roi(rt);
            auto *d = static_cast<std::uint64_t *>(rt.pool().toHost(data));
            for (std::uint64_t i = 1; i <= 3; i++) {
                rt.store(d[0], i);
                rt.persistBarrier(&d[0], 8);
                ck.checkpoint();
            }
        },
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::openOrCreate(rt, "ckpt2", 64);
            trace::RoiScope roi(rt);
            auto *root = op.root<std::uint64_t[2]>();
            Addr data = (*root)[0];
            Addr area = (*root)[1];
            if (!data || !area)
                return;
            Checkpointer ck(op, area, data, dsz);
            ck.annotate();
            ck.restore(); // overwrites the live region
            auto *d = static_cast<std::uint64_t *>(rt.pool().toHost(data));
            (void)rt.load(d[0]);
        });
    EXPECT_EQ(res.count(BugType::CrossFailureSemantic), 0u)
        << res.summary();
    EXPECT_EQ(res.count(BugType::CrossFailureRace), 0u)
        << res.summary();
}

// ------------------------------------------------------------------
// Operational logging
// ------------------------------------------------------------------

TEST_F(MechTest, OpLogAppendAndCounts)
{
    ObjPool op = makePool();
    Addr area = op.heap().palloc(OpLog::areaSize());
    OpLog log(op, area);
    log.format();
    EXPECT_EQ(log.committedCount(), 0u);
    log.append({1, 10, 20});
    log.append({2, 30, 40});
    EXPECT_EQ(log.committedCount(), 2u);
    EXPECT_EQ(log.pendingCount(), 2u);
    log.markApplied();
    EXPECT_EQ(log.pendingCount(), 0u);
}

TEST_F(MechTest, OpLogReplayReexecutesPendingOps)
{
    ObjPool op = makePool();
    Addr area = op.heap().palloc(OpLog::areaSize());
    OpLog log(op, area);
    log.format();
    log.append({1, 5, 0});
    log.append({1, 7, 0});
    std::uint64_t sum = 0;
    log.replay([&](const LoggedOp &o) { sum += o.arg0; });
    EXPECT_EQ(sum, 12u);
    EXPECT_EQ(log.pendingCount(), 0u);
    // Second replay is a no-op: everything applied.
    log.replay([&](const LoggedOp &) { sum += 100; });
    EXPECT_EQ(sum, 12u);
}

TEST(OpLogDetector, IdempotentLoggedOpsAreCrashConsistent)
{
    // Operational logging requires idempotent operations (blind
    // writes): a torn in-place value is always overwritten by replay
    // before anyone reads it.
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    auto res = driver.run(
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::create(rt, "oplog", 64);
            Addr area = op.heap().palloc(OpLog::areaSize());
            auto *root = op.root<std::uint64_t[2]>();
            rt.store((*root)[1], area);
            rt.persistBarrier(root, 16);
            OpLog log(op, area);
            log.format();
            trace::RoiScope roi(rt);
            for (std::uint64_t i = 1; i <= 3; i++) {
                // op: "set field 0 to i * 11" — idempotent.
                log.append({1, 0, i * 11});
                rt.store((*root)[0], i * 11);
                rt.persistBarrier(&(*root)[0], 8);
                log.markApplied();
            }
        },
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::openOrCreate(rt, "oplog", 64);
            trace::RoiScope roi(rt);
            auto *root = op.root<std::uint64_t[2]>();
            Addr area = (*root)[1];
            if (!area)
                return;
            OpLog log(op, area);
            log.replay([&](const LoggedOp &o) {
                rt.store((*root)[o.arg0], o.arg1);
                rt.persistBarrier(&(*root)[o.arg0], 8);
            });
            (void)rt.load((*root)[0]);
        });
    EXPECT_EQ(res.count(BugType::CrossFailureRace), 0u)
        << res.summary();
}

// ------------------------------------------------------------------
// Shadow paging
// ------------------------------------------------------------------

struct Record
{
    std::uint64_t a;
    std::uint64_t b;
};

TEST_F(MechTest, ShadowUpdatePublishesNewCopy)
{
    ObjPool op = makePool();
    auto *current = op.root<pm::PPtr<Record>>();
    pmlib::shadowUpdate(op, *current,
                        [](PmRuntime &rt, Record *r) {
                            rt.store(r->a, std::uint64_t{1});
                            rt.store(r->b, std::uint64_t{2});
                        });
    ASSERT_FALSE(current->null());
    EXPECT_EQ(current->get(pool)->a, 1u);

    Addr first = current->addr();
    pmlib::shadowUpdate(op, *current,
                        [](PmRuntime &rt, Record *r) {
                            rt.store(r->b, std::uint64_t{3});
                        });
    EXPECT_NE(current->addr(), first); // out-of-place copy
    EXPECT_EQ(current->get(pool)->a, 1u); // copied forward
    EXPECT_EQ(current->get(pool)->b, 3u);
}

TEST(ShadowDetector, ShadowUpdatesAreClean)
{
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    auto res = driver.run(
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::create(rt, "shadow", 64);
            auto *current = op.root<pm::PPtr<Record>>();
            trace::RoiScope roi(rt);
            for (std::uint64_t i = 1; i <= 3; i++) {
                pmlib::shadowUpdate(op, *current,
                                    [i](PmRuntime &rt, Record *r) {
                                        rt.store(r->a, i);
                                        rt.store(r->b, i * 2);
                                    });
            }
        },
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::openOrCreate(rt, "shadow", 64);
            trace::RoiScope roi(rt);
            auto *current = op.root<pm::PPtr<Record>>();
            pm::PPtr<Record> p = rt.load(*current);
            if (!p.null()) {
                Record *r = p.get(rt.pool());
                (void)rt.load(r->a);
                (void)rt.load(r->b);
            }
        });
    EXPECT_EQ(res.count(BugType::CrossFailureRace), 0u)
        << res.summary();
    EXPECT_EQ(res.count(BugType::CrossFailureSemantic), 0u)
        << res.summary();
}

TEST(ShadowDetector, InPlaceMutationInsteadOfShadowRaces)
{
    pm::PmPool pool(1 << 21);
    core::Driver driver(pool, {});
    auto res = driver.run(
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::create(rt, "shadow2", 64);
            auto *current = op.root<pm::PPtr<Record>>();
            trace::RoiScope roi(rt);
            pmlib::shadowUpdate(op, *current,
                                [](PmRuntime &rt, Record *r) {
                                    rt.store(r->a, std::uint64_t{1});
                                });
            // BUG: later mutation happens in place, never persisted.
            Record *r = rt.load(*current).get(rt.pool());
            rt.store(r->b, std::uint64_t{7});
            // One more ordering point so the failure can land after.
            auto *root = op.root<pm::PPtr<Record>>();
            rt.clwb(root, 8);
            rt.sfence();
        },
        [&](PmRuntime &rt) {
            ObjPool op = ObjPool::openOrCreate(rt, "shadow2", 64);
            trace::RoiScope roi(rt);
            auto *current = op.root<pm::PPtr<Record>>();
            pm::PPtr<Record> p = rt.load(*current);
            if (!p.null()) {
                Record *r = p.get(rt.pool());
                (void)rt.load(r->b);
            }
        });
    EXPECT_GE(res.count(BugType::CrossFailureRace), 1u)
        << res.summary();
}

} // namespace
