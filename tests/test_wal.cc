/**
 * @file
 * The redo-only write-ahead log (pmlib/wal) — the third
 * crash-consistency mechanism — and its wal.* bug-suite family.
 *
 * Functional layer: CRC32 framing round-trips, group-commit batching,
 * checkpoint/truncate invariants (alternating descriptor slots), and
 * idempotent replay (replay twice == replay once). Rejection layer:
 * torn tails, corrupt CRCs, corrupt lengths and corrupt heads must
 * abort cleanly, and a length-splat fuzz over the whole persistent
 * area must never crash the recovery scanner (seeded like the other
 * fuzz suites; XFD_FUZZ_SEED replays one case). Detection layer: the
 * correct protocol is finding-free under failure injection, each
 * planted wal.* defect produces exactly its registered finding class,
 * and each bug's clean twin (same campaign, flag off) stays silent.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "bugsuite/registry.hh"
#include "common/rng.hh"
#include "core/driver.hh"
#include "harness.hh"
#include "pmlib/objpool.hh"
#include "pmlib/wal.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using core::BugType;
using pmlib::ObjPool;
using pmlib::Wal;
using pmlib::WalHeader;
using pmlib::WalOptions;
using pmlib::WalRecordHeader;
using trace::PmRuntime;
using trace::Stage;

constexpr std::size_t kCap = 1 << 12; ///< log arena bytes
constexpr std::size_t kPage = 64;     ///< home-page / payload bytes
constexpr std::size_t kPages = 8;     ///< page-table capacity
const std::size_t kFrame = Wal::frameSize(kPage);

std::vector<std::uint8_t>
img(std::uint8_t fill)
{
    return std::vector<std::uint8_t>(kPage, fill);
}

// ------------------------------------------------------------------
// CRC framing
// ------------------------------------------------------------------

TEST(WalCrc, Crc32MatchesKnownVector)
{
    // The standard CRC-32 check value ("123456789" -> 0xCBF43926)
    // pins the polynomial, reflection and final xor.
    EXPECT_EQ(pmlib::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(pmlib::crc32("", 0), 0u);
}

TEST(WalCrc, Crc32SeedChainsAcrossSplits)
{
    const char data[] = "write-ahead logging";
    const std::size_t n = sizeof(data) - 1;
    std::uint32_t whole = pmlib::crc32(data, n);
    for (std::size_t cut = 0; cut <= n; cut++) {
        std::uint32_t part = pmlib::crc32(data, cut);
        EXPECT_EQ(pmlib::crc32(data + cut, n - cut, part), whole)
            << "cut at " << cut;
    }
}

TEST(WalCrc, RecordCrcCoversEveryField)
{
    std::vector<std::uint8_t> payload = img(0x5a);
    std::uint32_t base =
        pmlib::walRecordCrc(7, 3, payload.data(), kPage);
    EXPECT_NE(pmlib::walRecordCrc(8, 3, payload.data(), kPage), base);
    EXPECT_NE(pmlib::walRecordCrc(7, 4, payload.data(), kPage), base);
    EXPECT_NE(pmlib::walRecordCrc(7, 3, payload.data(), kPage - 8),
              base);
    payload[kPage - 1] ^= 1;
    EXPECT_NE(pmlib::walRecordCrc(7, 3, payload.data(), kPage), base);
    payload[kPage - 1] ^= 1;
    EXPECT_EQ(pmlib::walRecordCrc(7, 3, payload.data(), kPage), base);
}

// ------------------------------------------------------------------
// Framing, group commit, checkpoint, replay
// ------------------------------------------------------------------

struct WalTest : ::testing::Test
{
    WalTest() : pool(1 << 21), rt(pool, buf, Stage::PreFailure) {}

    ObjPool
    makePool()
    {
        return ObjPool::create(rt, "wal", 64);
    }

    /** Palloc one WAL area inside @p op. */
    static Addr
    makeArea(ObjPool &op)
    {
        return op.heap().palloc(Wal::areaSize(kCap, kPages));
    }

    static WalHeader *
    header(ObjPool &op, const Wal &w)
    {
        return static_cast<WalHeader *>(
            op.pm().toHost(w.headerAddr(), sizeof(WalHeader)));
    }

    static std::uint8_t *
    logBytes(ObjPool &op, const Wal &w)
    {
        return static_cast<std::uint8_t *>(
            op.pm().toHost(w.logAddr(), kCap));
    }

    static std::uint8_t *
    homeBytes(ObjPool &op, Addr page_addr)
    {
        return static_cast<std::uint8_t *>(
            op.pm().toHost(page_addr, kPage));
    }

    pm::PmPool pool;
    trace::TraceBuffer buf;
    PmRuntime rt;
};

TEST_F(WalTest, FormatThenRecoverOnEmptyLog)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.annotate();

    Wal fresh(op, area, kCap, kPage, kPages);
    ASSERT_TRUE(fresh.recover());
    EXPECT_EQ(fresh.recordsReplayed(), 0u);
    EXPECT_EQ(fresh.lastCommittedLsn(), 0u);
    EXPECT_EQ(fresh.nextLsn(), 1u);
    EXPECT_EQ(fresh.generation(), 1u);
    EXPECT_EQ(fresh.committedBytes(), 0u);
}

TEST_F(WalTest, UnformattedAreaIsRejectedWholesale)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    EXPECT_FALSE(w.recover()); // no magic: nothing to replay
}

TEST_F(WalTest, AppendStagesWithoutSealing)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);

    auto a = img(0x11);
    w.append(0, a.data());
    EXPECT_EQ(w.stagedBytes(), kFrame);
    EXPECT_EQ(w.committedBytes(), 0u);
    EXPECT_EQ(w.lastCommittedLsn(), 0u);
    EXPECT_EQ(w.nextLsn(), 2u);
    // The commit variable has not moved: the record is invisible to
    // recovery until commit() seals the batch.
    EXPECT_EQ(header(op, w)->headOff, 0u);
}

TEST_F(WalTest, GroupCommitSealsWholeBatchAtOnce)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    Addr p0 = w.registerPage(0);
    Addr p1 = w.registerPage(1);

    auto a = img(0x11), b = img(0x22), c = img(0x33);
    w.append(0, a.data());
    w.append(1, b.data());
    w.append(0, c.data());
    w.commit();

    EXPECT_EQ(w.lastCommittedLsn(), 3u);
    EXPECT_EQ(w.committedBytes(), 3 * kFrame);
    EXPECT_EQ(w.stagedBytes(), w.committedBytes());
    EXPECT_EQ(header(op, w)->headOff, 3 * kFrame);
    // Applied in place, last writer wins per page.
    EXPECT_EQ(std::memcmp(homeBytes(op, p0), c.data(), kPage), 0);
    EXPECT_EQ(std::memcmp(homeBytes(op, p1), b.data(), kPage), 0);
}

TEST_F(WalTest, RecoverReplaysSealedBatchIntoTornHomes)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    Addr p0 = w.registerPage(0);
    Addr p1 = w.registerPage(1);
    auto a = img(0x11), b = img(0x22);
    w.append(0, a.data());
    w.append(1, b.data());
    w.commit();

    // Pretend both home writebacks were lost in the failure.
    std::memset(homeBytes(op, p0), 0xee, kPage);
    std::memset(homeBytes(op, p1), 0xee, kPage);

    Wal fresh(op, area, kCap, kPage, kPages);
    ASSERT_TRUE(fresh.recover());
    EXPECT_EQ(fresh.recordsReplayed(), 2u);
    EXPECT_EQ(fresh.lastCommittedLsn(), 2u);
    EXPECT_EQ(fresh.nextLsn(), 3u);
    EXPECT_EQ(fresh.committedBytes(), 2 * kFrame);
    EXPECT_EQ(std::memcmp(homeBytes(op, p0), a.data(), kPage), 0);
    EXPECT_EQ(std::memcmp(homeBytes(op, p1), b.data(), kPage), 0);
}

TEST_F(WalTest, ReplayTwiceEqualsReplayOnce)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    Addr p0 = w.registerPage(0);
    auto a = img(0x11), b = img(0x22);
    w.append(0, a.data());
    w.append(0, b.data());
    w.commit();

    Wal first(op, area, kCap, kPage, kPages);
    ASSERT_TRUE(first.recover());
    std::vector<std::uint8_t> after1(homeBytes(op, p0),
                                     homeBytes(op, p0) + kPage);

    // A second failure right after recovery replays the same log.
    std::memset(homeBytes(op, p0), 0xee, kPage);
    Wal second(op, area, kCap, kPage, kPages);
    ASSERT_TRUE(second.recover());
    EXPECT_EQ(second.recordsReplayed(), first.recordsReplayed());
    EXPECT_EQ(second.lastCommittedLsn(), first.lastCommittedLsn());
    EXPECT_EQ(second.nextLsn(), first.nextLsn());
    std::vector<std::uint8_t> after2(homeBytes(op, p0),
                                     homeBytes(op, p0) + kPage);
    EXPECT_EQ(after1, after2);
    EXPECT_EQ(std::memcmp(after2.data(), b.data(), kPage), 0);
}

TEST_F(WalTest, UnsealedTailIsDiscardedByRecovery)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);
    auto a = img(0x11), b = img(0x22);
    w.append(0, a.data());
    w.commit();
    w.append(0, b.data()); // staged, never sealed

    Wal fresh(op, area, kCap, kPage, kPages);
    ASSERT_TRUE(fresh.recover());
    EXPECT_EQ(fresh.recordsReplayed(), 1u);
    EXPECT_EQ(fresh.lastCommittedLsn(), 1u);
    EXPECT_EQ(fresh.nextLsn(), 2u); // the torn tail's LSN is reissued
    EXPECT_EQ(fresh.committedBytes(), kFrame);
}

TEST_F(WalTest, CheckpointTruncatesAndAlternatesSlots)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);
    auto a = img(0x11);

    w.append(0, a.data());
    w.append(0, a.data());
    w.commit();
    w.checkpoint();
    EXPECT_EQ(w.generation(), 2u);
    EXPECT_EQ(w.committedBytes(), 0u);
    WalHeader *h = header(op, w);
    EXPECT_EQ(h->headOff, 0u);
    EXPECT_EQ(h->ckptGen, 2u);
    EXPECT_EQ(h->ckptLsn[0], 2u); // slot (1+1)&1 took this checkpoint

    w.append(0, a.data());
    w.commit();
    w.checkpoint();
    EXPECT_EQ(w.generation(), 3u);
    EXPECT_EQ(h->ckptLsn[1], 3u); // the other slot took the next one
    EXPECT_EQ(h->ckptLsn[0], 2u); // previous descriptor untouched

    Wal fresh(op, area, kCap, kPage, kPages);
    ASSERT_TRUE(fresh.recover());
    EXPECT_EQ(fresh.recordsReplayed(), 0u); // log truncated
    EXPECT_EQ(fresh.lastCommittedLsn(), 3u);
    EXPECT_EQ(fresh.generation(), 3u);
}

TEST_F(WalTest, CheckpointWithoutNewCommitsIsANoOp)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);
    auto a = img(0x11);
    w.append(0, a.data());
    w.commit();
    w.checkpoint();
    ASSERT_EQ(w.generation(), 2u);
    w.checkpoint(); // nothing sealed since the truncation
    EXPECT_EQ(w.generation(), 2u);
    EXPECT_EQ(header(op, w)->ckptGen, 2u);
}

TEST_F(WalTest, OnlyRecordsPastTheCheckpointReplay)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    Addr p0 = w.registerPage(0);
    Addr p1 = w.registerPage(1);
    auto a = img(0x11), b = img(0x22);
    w.append(0, a.data());
    w.commit();
    w.checkpoint(); // lsn 1 is now described as durable in place
    w.append(1, b.data());
    w.commit();

    // Scribble both homes: replay must restore only lsn 2's page —
    // the checkpoint promises lsn 1's home needs no replay.
    std::memset(homeBytes(op, p0), 0xee, kPage);
    std::memset(homeBytes(op, p1), 0xee, kPage);
    Wal fresh(op, area, kCap, kPage, kPages);
    ASSERT_TRUE(fresh.recover());
    EXPECT_EQ(fresh.recordsReplayed(), 1u);
    EXPECT_EQ(fresh.lastCommittedLsn(), 2u);
    EXPECT_EQ(homeBytes(op, p0)[0], 0xee);
    EXPECT_EQ(std::memcmp(homeBytes(op, p1), b.data(), kPage), 0);
}

// ------------------------------------------------------------------
// Torn/corrupt-frame rejection
// ------------------------------------------------------------------

/** recover()'s abort reason for the current area, or "" on success. */
std::string
recoveryAbortReason(ObjPool &op, Addr area)
{
    Wal fresh(op, area, kCap, kPage, kPages);
    try {
        fresh.recover();
    } catch (const trace::PostFailureAbort &e) {
        return e.reason;
    }
    return "";
}

TEST_F(WalTest, TornRecordBelowTheSealedHeadAborts)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);
    auto a = img(0x11);
    w.append(0, a.data());
    w.commit();

    // Zero the frame's LSN: a sealed head pointing past a hole.
    auto *r = reinterpret_cast<WalRecordHeader *>(logBytes(op, w));
    r->lsn = 0;
    EXPECT_NE(recoveryAbortReason(op, area).find("torn record"),
              std::string::npos);
}

TEST_F(WalTest, CorruptPayloadFailsTheCrcCheck)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);
    auto a = img(0x11);
    w.append(0, a.data());
    w.commit();

    logBytes(op, w)[sizeof(WalRecordHeader) + kPage / 2] ^= 0xff;
    EXPECT_NE(recoveryAbortReason(op, area).find("crc mismatch"),
              std::string::npos);
}

TEST_F(WalTest, CorruptStoredCrcFailsTheCrcCheck)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);
    auto a = img(0x11);
    w.append(0, a.data());
    w.commit();

    auto *r = reinterpret_cast<WalRecordHeader *>(logBytes(op, w));
    r->crc ^= 0xff;
    EXPECT_NE(recoveryAbortReason(op, area).find("crc mismatch"),
              std::string::npos);
}

TEST_F(WalTest, CorruptRecordLengthAborts)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);
    auto a = img(0x11);
    w.append(0, a.data());
    w.commit();

    auto *r = reinterpret_cast<WalRecordHeader *>(logBytes(op, w));
    r->dataLen = static_cast<std::uint32_t>(kPage) + 8;
    EXPECT_NE(recoveryAbortReason(op, area).find("record length"),
              std::string::npos);
    r->dataLen = 0;
    EXPECT_NE(recoveryAbortReason(op, area).find("record length"),
              std::string::npos);
}

TEST_F(WalTest, CorruptHeadAborts)
{
    ObjPool op = makePool();
    Addr area = makeArea(op);
    Wal w(op, area, kCap, kPage, kPages);
    w.format();
    w.registerPage(0);
    auto a = img(0x11);
    w.append(0, a.data());
    w.commit();

    WalHeader *h = header(op, w);
    h->headOff = kCap + 8; // past the arena
    EXPECT_NE(recoveryAbortReason(op, area).find("corrupt log head"),
              std::string::npos);
    h->headOff = 4; // not 8-byte aligned
    EXPECT_NE(recoveryAbortReason(op, area).find("corrupt log head"),
              std::string::npos);
}

// ------------------------------------------------------------------
// Length-splat fuzz over the persistent area
// ------------------------------------------------------------------

/**
 * One recovery attempt over a (possibly corrupted) area: must either
 * replay or reject cleanly — PostFailureAbort for malformed frames,
 * BadPmAccess for wild page-table pointers — never crash or hang.
 */
void
recoverNoCrash(ObjPool &op, Addr area, WalOptions opts,
               std::uint64_t seed)
{
    Wal fresh(op, area, kCap, kPage, kPages, opts);
    try {
        if (fresh.recover()) {
            EXPECT_LE(fresh.committedBytes(), kCap)
                << "XFD_FUZZ_SEED=" << seed;
            EXPECT_LE(fresh.recordsReplayed(),
                      kCap / sizeof(WalRecordHeader))
                << "XFD_FUZZ_SEED=" << seed;
        }
    } catch (const trace::PostFailureAbort &) {
        // Clean rejection is the expected common case.
    } catch (const pm::BadPmAccess &) {
        // A splatted page-table entry pointing outside the pool: the
        // detection driver records this as a post-failure crash.
    }
}

/** Committed three-record state the fuzz corrupts copies of. */
struct FuzzArea
{
    ObjPool op;
    Addr area;
    std::vector<std::uint8_t> pristine;

    explicit FuzzArea(PmRuntime &rt)
        : op(ObjPool::create(rt, "walfuzz", 64)),
          area(op.heap().palloc(Wal::areaSize(kCap, kPages)))
    {
        Wal w(op, area, kCap, kPage, kPages);
        w.format();
        w.registerPage(0);
        w.registerPage(1);
        auto a = img(0x11), b = img(0x22), c = img(0x33);
        w.append(0, a.data());
        w.append(1, b.data());
        w.commit();
        w.append(0, c.data());
        w.commit();
        auto *bytes = static_cast<std::uint8_t *>(
            op.pm().toHost(area, Wal::areaSize(kCap, kPages)));
        pristine.assign(bytes, bytes + Wal::areaSize(kCap, kPages));
    }

    std::uint8_t *
    bytes()
    {
        return static_cast<std::uint8_t *>(
            op.pm().toHost(area, pristine.size()));
    }

    void restore() { std::memcpy(bytes(), pristine.data(), pristine.size()); }
};

TEST_F(WalTest, FuzzSplatSweepNeverCrashesRecovery)
{
    FuzzArea f(rt);
    // "Plausible but wrong" u32 patterns at every 8-byte-aligned
    // offset of header, page table and the used log prefix: whatever
    // field that lands on (head, generation, table pointer, LSN,
    // length, CRC, payload), recovery must reject or parse — with and
    // without the CRC-skipping raw scanner.
    const std::uint32_t patterns[] = {1u << 12, 1u << 19, 1u << 23,
                                      0xffffffffu};
    const std::size_t used = sizeof(WalHeader) +
                             kPages * sizeof(std::uint64_t) +
                             4 * kFrame;
    WalOptions rawScan;
    rawScan.missingCrcCheck = true;
    for (std::uint32_t pat : patterns) {
        for (std::size_t off = 0; off + 4 <= used; off += 8) {
            f.restore();
            std::memcpy(f.bytes() + off, &pat, sizeof(pat));
            recoverNoCrash(f.op, f.area, {}, 0);
            f.restore();
            std::memcpy(f.bytes() + off, &pat, sizeof(pat));
            recoverNoCrash(f.op, f.area, rawScan, 0);
        }
    }
}

void
fuzzOne(FuzzArea &f, std::uint64_t seed)
{
    Rng rng(seed);
    f.restore();
    std::size_t splats = 1 + rng.below(8);
    for (std::size_t i = 0; i < splats; i++) {
        std::size_t off = rng.below(f.pristine.size() - 8);
        std::uint64_t val = rng.next();
        std::memcpy(f.bytes() + off, &val, sizeof(val));
    }
    WalOptions opts;
    opts.missingCrcCheck = rng.below(2) == 1;
    opts.replayPastCheckpoint = rng.below(2) == 1;
    recoverNoCrash(f.op, f.area, opts, seed);
}

TEST_F(WalTest, FuzzRandomSplatsNeverCrashRecovery)
{
    FuzzArea f(rt);
    for (std::uint64_t seed = 1; seed <= 64; seed++) {
        SCOPED_TRACE(seed);
        fuzzOne(f, seed);
    }
}

TEST(WalFuzzReplay, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP()
            << "set XFD_FUZZ_SEED=<seed from a failure message> to "
               "replay a single fuzz case";
    pm::PmPool pool(1 << 21);
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, Stage::PreFailure);
    FuzzArea f(rt);
    fuzzOne(f, s);
}

// ------------------------------------------------------------------
// Detection campaigns at the mechanism level
// ------------------------------------------------------------------

/**
 * Minimal two-page WAL program: one committed+checkpointed batch
 * before the RoI, then two group commits and a checkpoint inside it.
 * LSNs 1 (pre-RoI), 2-3 (first batch), 4 (second batch).
 */
core::CampaignResult
walMechCampaign(WalOptions opts)
{
    auto pre = [opts](PmRuntime &rt) {
        ObjPool op = ObjPool::create(rt, "walmech", 16);
        Addr area = op.heap().palloc(Wal::areaSize(kCap, kPages));
        auto *root = op.root<std::uint64_t>();
        rt.store(*root, static_cast<std::uint64_t>(area));
        rt.persistBarrier(root, sizeof(*root));
        Wal w(op, area, kCap, kPage, kPages, opts);
        w.format();
        w.annotate();
        w.registerPage(0);
        auto a = img(0x11);
        w.append(0, a.data());
        w.commit();
        w.checkpoint();
        {
            trace::RoiScope roi(rt);
            w.registerPage(1);
            auto b = img(0x22), c = img(0x33), d = img(0x44);
            w.append(0, b.data());
            w.append(1, c.data());
            w.commit();
            w.append(1, d.data());
            w.commit();
            w.checkpoint(); // final durability point
        }
    };
    auto post = [opts](PmRuntime &rt) {
        ObjPool op = ObjPool::open(rt, "walmech");
        trace::RoiScope roi(rt);
        Addr area = *op.root<std::uint64_t>(); // bookkeeping read
        if (area == 0)
            return;
        Wal w(op, area, kCap, kPage, kPages, opts);
        w.annotate();
        if (!w.recover())
            return;
        if (w.lastCommittedLsn() == 0)
            return;
        // Resumption reads the recovered pages (the Figure 1 shape).
        // Page 1's table entry only becomes durable with the commit
        // that seals LSN 3, so gate its read on that LSN.
        std::vector<std::uint8_t> pb(kPage);
        Addr p0 = w.pageAddr(0);
        if (p0)
            rt.readPm(pb.data(), op.pm().toHost(p0, kPage), kPage);
        if (w.lastCommittedLsn() >= 3) {
            Addr p1 = w.pageAddr(1);
            if (p1)
                rt.readPm(pb.data(), op.pm().toHost(p1, kPage), kPage);
        }
    };
    return xfdtest::runCampaign(pre, post);
}

TEST(WalDetect, CorrectProtocolIsFindingFree)
{
    auto res = walMechCampaign({});
    EXPECT_TRUE(xfdtest::hasNoFindings(res));
    EXPECT_GT(res.statistics().failurePoints, 0u);
}

TEST(WalDetect, EagerSealRacesWithItsPayload)
{
    WalOptions opts;
    opts.tornRecordAccepted = true;
    auto res = walMechCampaign(opts);
    EXPECT_TRUE(
        xfdtest::hasFindingOfClass(res, BugType::CrossFailureRace));
}

// ------------------------------------------------------------------
// The wal.* bug-suite family
// ------------------------------------------------------------------

TEST(WalBugsuite, RegistryPinsSixCasesWithClasses)
{
    using bugsuite::Expected;
    const std::map<std::string, Expected> want = {
        {"wal.race.torn_record_accepted", Expected::Race},
        {"wal.race.commit_before_payload", Expected::Race},
        {"wal.recovery.missing_crc_check", Expected::Race},
        {"wal.race.truncate_before_apply", Expected::Race},
        {"wal.sem.replay_past_checkpoint", Expected::Semantic},
        {"wal.race.unflushed_log_head", Expected::Race},
    };
    auto cases = bugsuite::bugCasesFor("wal_btree");
    ASSERT_EQ(cases.size(), want.size());
    for (const auto &c : cases) {
        SCOPED_TRACE(c.id);
        auto it = want.find(c.id);
        ASSERT_NE(it, want.end());
        EXPECT_EQ(c.expected, it->second);
    }
}

TEST(WalBugsuite, EachPlantedBugProducesItsClass)
{
    for (const auto &c : bugsuite::bugCasesFor("wal_btree")) {
        SCOPED_TRACE(c.id);
        auto res = bugsuite::runBugCase(c);
        EXPECT_TRUE(bugsuite::detected(c, res)) << res.summary();
    }
}

TEST(WalBugsuite, CleanTwinsAreFindingFree)
{
    // Same campaign shape as each registered case, bug flag left off:
    // the defect — not the workload around it — carries the finding.
    std::set<std::tuple<unsigned, unsigned, unsigned, bool>> shapes;
    for (const auto &c : bugsuite::bugCasesFor("wal_btree"))
        shapes.insert({c.initOps, c.testOps, c.postOps, c.roiFromStart});
    for (const auto &[init, test, post, fromStart] : shapes) {
        SCOPED_TRACE(testing::Message()
                     << init << "/" << test << "/" << post
                     << (fromStart ? " roi-from-start" : ""));
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = init;
        wcfg.testOps = test;
        wcfg.postOps = post;
        wcfg.roiFromStart = fromStart;
        auto res = xfdtest::runWorkload("wal_btree", wcfg);
        EXPECT_TRUE(xfdtest::hasNoFindings(res));
        EXPECT_GT(res.statistics().failurePoints, 0u);
    }
}

} // namespace
