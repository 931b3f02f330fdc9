/**
 * @file
 * The delta-image engine's correctness contract: every page-granular
 * restore must leave the exec pool byte-identical to the full crash
 * image, so findings and the exec-pool contents at the start of every
 * post-failure execution do not depend on the restore schedule.
 *
 * The reference is the full image itself: the whole binary runs with
 * XFD_DELTA_VALIDATE=1, which makes the driver memcmp the exec pool
 * against the source image after every restore (anchor, durable and
 * crash-state candidate) and panic on the first diverging byte. On
 * top of that the contract is verified three ways:
 *
 *  1. unit tests of the moving parts (ImageDeltaStore, the pool's
 *     dirty-page map, restorePages coalescing);
 *  2. equivalence sweeps over every registered workload and the whole
 *     synthetic-bug suite, serial and parallel, plus the durable
 *     tier, between the default and the finest restore schedule;
 *  3. differential fuzzing across checkpoint cadences and page sizes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "pm/delta.hh"
#include "pm/image.hh"
#include "pm/pool.hh"
#include "harness.hh"
#include "workloads/workload.hh"
#include "xfd.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;

// Before main(): every campaign in this binary runs in paranoia mode.
const int validateEnvSet =
    (setenv("XFD_DELTA_VALIDATE", "1", 1), 0);

/* --------------------------------------------------------------- */
/* Unit tests: ImageDeltaStore                                     */
/* --------------------------------------------------------------- */

constexpr Addr storeBase = 0x1000000;

TEST(ImageDeltaStore, CollectsPagesByHalfOpenSeqInterval)
{
    pm::ImageDeltaStore s(4096, {storeBase, storeBase + (1 << 20)});
    EXPECT_EQ(s.pageSize(), 4096u);
    EXPECT_EQ(s.pageCount(), 256u);

    s.recordWrite(0, storeBase, 1);
    s.recordWrite(3, storeBase + 5000, 8);
    s.recordWrite(7, storeBase + 9000, 8);

    std::set<std::uint32_t> pages;
    s.collectPages(0, 1, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0}));

    pages.clear();
    s.collectPages(0, 4, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0, 1}));

    // toSeq is exclusive: seq 7 is outside [0, 7).
    pages.clear();
    s.collectPages(0, 7, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0, 1}));

    // fromSeq is inclusive, and out is unioned into, not replaced.
    s.collectPages(3, 8, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0, 1, 2}));

    pages.clear();
    s.collectPages(8, 100, pages);
    EXPECT_TRUE(pages.empty());
}

TEST(ImageDeltaStore, WriteSpanningPagesTouchesAllOfThem)
{
    pm::ImageDeltaStore s(256, {storeBase, storeBase + 4096});
    s.recordWrite(1, storeBase + 250, 520); // pages 0..3
    std::set<std::uint32_t> pages;
    s.collectPages(0, 2, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0, 1, 2, 3}));
}

TEST(ImageDeltaStore, RepeatedWritesToOnePageAreNotFolded)
{
    // Regression guard: folding consecutive same-page writes onto the
    // earlier seq makes a failure point that lands between them miss
    // the later write. Every recorded write must keep its own span.
    pm::ImageDeltaStore s(4096, {storeBase, storeBase + (1 << 16)});
    s.recordWrite(2, storeBase + 8, 8);
    s.recordWrite(9, storeBase + 16, 8); // same page, later seq
    EXPECT_EQ(s.spanCount(), 2u);

    std::set<std::uint32_t> pages;
    s.collectPages(3, 100, pages); // interval sees only the second
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0}));
}

TEST(ImageDeltaStore, IgnoresEmptyAndOutOfRangeWrites)
{
    pm::ImageDeltaStore s(4096, {storeBase, storeBase + (1 << 16)});
    s.recordWrite(0, storeBase, 0);
    s.recordWrite(1, storeBase - 4096, 8);
    EXPECT_EQ(s.spanCount(), 0u);
}

/* --------------------------------------------------------------- */
/* Unit tests: PmPool dirty-page tracking                          */
/* --------------------------------------------------------------- */

TEST(DirtyTracking, MarksDrainsAndClears)
{
    pm::PmPool pool(1 << 16);
    EXPECT_EQ(pool.trackingPageSize(), 0u);
    pool.markDirty(pool.base(), 64); // no-op while disabled
    EXPECT_EQ(pool.dirtyPageCount(), 0u);

    pool.enableDirtyTracking(256);
    EXPECT_EQ(pool.trackingPageSize(), 256u);

    // One write straddling a page boundary dirties both pages.
    pool.markDirty(pool.base() + 255, 2);
    pool.markDirty(pool.base() + 7 * 256, 1);
    EXPECT_EQ(pool.dirtyPageCount(), 3u);

    std::set<std::uint32_t> out{42}; // drain unions into out
    pool.drainDirtyPages(out);
    EXPECT_EQ(out, (std::set<std::uint32_t>{0, 1, 7, 42}));
    EXPECT_EQ(pool.dirtyPageCount(), 0u); // drain clears

    pool.markDirty(pool.base(), 1);
    EXPECT_EQ(pool.dirtyPageCount(), 1u);
    pool.clearDirtyPages();
    EXPECT_EQ(pool.dirtyPageCount(), 0u);

    // Out-of-range marks are clamped, not fatal.
    pool.markDirty(pool.base() + pool.size() - 1, 4096);
    EXPECT_EQ(pool.dirtyPageCount(), 1u);

    pool.disableDirtyTracking();
    EXPECT_EQ(pool.trackingPageSize(), 0u);
    pool.markDirty(pool.base(), 64);
    EXPECT_EQ(pool.dirtyPageCount(), 0u);
}

/* --------------------------------------------------------------- */
/* Unit tests: restorePages                                        */
/* --------------------------------------------------------------- */

TEST(RestorePages, RestoresExactlyTheNamedPages)
{
    pm::PmPool pool(1 << 12);
    for (std::size_t i = 0; i < pool.size(); i++)
        pool.data()[i] = static_cast<std::uint8_t>(i * 7);
    pm::PmImage img = pool.snapshot();

    // Soil everything, then restore pages {2,3,7} of 256 bytes.
    std::memset(pool.data(), 0xAB, pool.size());
    pm::DeltaRestoreStats stats;
    pm::restorePages(img, pool, 256, {2, 3, 7}, stats);

    for (std::size_t i = 0; i < pool.size(); i++) {
        std::size_t page = i / 256;
        std::uint8_t want = (page == 2 || page == 3 || page == 7)
                                ? static_cast<std::uint8_t>(i * 7)
                                : 0xAB;
        ASSERT_EQ(pool.data()[i], want) << "offset " << i;
    }
    EXPECT_EQ(stats.deltaRestores, 1u);
    EXPECT_EQ(stats.pagesRestored, 3u);
    EXPECT_EQ(stats.bytesRestored, 3u * 256);
    EXPECT_EQ(stats.fullCopies, 0u);
    EXPECT_EQ(stats.bytesCopied(), 3u * 256);
}

TEST(RestorePages, ClampsTheFinalPartialPage)
{
    // 1 KiB pool, 256-byte pages, but restore a page set containing
    // the last page of a pool whose size is not page-aligned.
    pm::PmPool pool(1000);
    pm::PmImage img = pool.snapshot();
    std::memset(pool.data(), 0xCD, pool.size());
    pm::DeltaRestoreStats stats;
    pm::restorePages(img, pool, 256, {3}, stats);
    EXPECT_EQ(stats.bytesRestored, 1000u - 3 * 256);
    for (std::size_t i = 3 * 256; i < pool.size(); i++)
        ASSERT_EQ(pool.data()[i], 0);
}

TEST(RestoreFull, AccountsTheWholeImage)
{
    pm::PmPool pool(1 << 12);
    pm::PmImage img = pool.snapshot();
    pm::DeltaRestoreStats stats;
    pm::restoreFull(img, pool, stats);
    EXPECT_EQ(stats.fullCopies, 1u);
    EXPECT_EQ(stats.bytesFullCopy, pool.size());
    EXPECT_EQ(stats.deltaRestores, 0u);
}

/* --------------------------------------------------------------- */
/* Equivalence harness                                             */
/* --------------------------------------------------------------- */

/** Order-independent fingerprint of a campaign's findings. */
std::vector<std::string>
fingerprint(const CampaignResult &res)
{
    std::vector<std::string> fp;
    for (const auto &b : res.findings()) {
        fp.push_back(strprintf(
            "%d %#llx %u %s:%u %s:%u fp=%u n=%u",
            static_cast<int>(b.type),
            static_cast<unsigned long long>(b.addr), b.size,
            b.reader.file, b.reader.line, b.writer.file, b.writer.line,
            b.failurePoint, b.occurrences));
    }
    std::sort(fp.begin(), fp.end());
    return fp;
}

std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

struct CampaignCapture
{
    CampaignResult result;
    /** Exec-pool content hash at the start of every post execution. */
    std::vector<std::uint64_t> poolHashes;
};

/**
 * Run one workload campaign and capture, on entry to every
 * post-failure execution, a hash of the exec pool the driver just
 * reconstructed. Every restore schedule must produce the same
 * multiset of images (and, serially, the same sequence).
 */
CampaignCapture
runWorkload(const std::string &name, const workloads::WorkloadConfig &wcfg,
            const DetectorConfig &dcfg, unsigned threads)
{
    auto w = workloads::makeWorkload(name, wcfg);
    CampaignCapture cap;
    std::mutex mu;
    cap.result =
        Campaign::forProgram(
            [&](PmRuntime &rt) { w->pre(rt); },
            [&](PmRuntime &rt) {
                pm::PmPool &p = rt.pool();
                std::uint64_t h = fnv1a(p.data(), p.size());
                {
                    std::lock_guard<std::mutex> lk(mu);
                    cap.poolHashes.push_back(h);
                }
                w->post(rt);
            })
            .poolSize(1 << 22)
            .config(dcfg)
            .threads(threads)
            .run();
    if (threads > 1) // worker interleaving: compare as a multiset
        std::sort(cap.poolHashes.begin(), cap.poolHashes.end());
    return cap;
}

void
expectEquivalent(const std::string &name, unsigned threads,
                 bool durable)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 4;
    wcfg.testOps = 4;
    wcfg.postOps = 2;

    DetectorConfig delta;
    delta.crashStates = durable ? "durable" : "";
    DetectorConfig fine = xfdtest::fineRestoreSchedule(delta);
    // A small cadence exercises the resync path inside one campaign.
    delta.deltaCheckpointInterval = 3;

    auto a = runWorkload(name, wcfg, fine, threads);
    auto b = runWorkload(name, wcfg, delta, threads);

    std::string ctx = strprintf("%s threads=%u durable=%d", name.c_str(),
                                threads, durable);
    EXPECT_EQ(fingerprint(a.result), fingerprint(b.result)) << ctx;
    EXPECT_EQ(a.poolHashes, b.poolHashes) << ctx;
    EXPECT_EQ(a.result.statistics().failurePoints,
              b.result.statistics().failurePoints)
        << ctx;

    // The engine must actually have taken the delta path, and moved
    // fewer bytes than one full copy per restore would.
    const auto &st = b.result.statistics();
    const auto &r = st.restore;
    if (st.postExecutions > 1) {
        EXPECT_GT(r.deltaRestores, 0u) << ctx;
        EXPECT_LT(r.bytesCopied(),
                  (r.fullCopies + r.deltaRestores) * st.poolBytes)
            << ctx;
    }
    // One restore engine: the driver never copies the whole image.
    EXPECT_EQ(r.fullCopies, 0u) << ctx;
    EXPECT_EQ(a.result.statistics().restore.fullCopies, 0u) << ctx;
}

TEST(DeltaEquivalence, EveryWorkloadSerial)
{
    for (const auto &name : workloads::workloadNames())
        expectEquivalent(name, 1, false);
}

TEST(DeltaEquivalence, EveryWorkloadParallel)
{
    for (const auto &name : workloads::workloadNames())
        expectEquivalent(name, 3, false);
}

TEST(DeltaEquivalence, DurableTier)
{
    // Durable-tier restores derive dirty pages from fence-time durable
    // deltas instead of the write log — a separate code path.
    for (const auto &name : workloads::workloadNames()) {
        expectEquivalent(name, 1, true);
        expectEquivalent(name, 2, true);
    }
}

TEST(DeltaEquivalence, FullBugsuiteFindsTheSameBugs)
{
    DetectorConfig fine = xfdtest::fineRestoreSchedule({});
    DetectorConfig delta;
    delta.deltaCheckpointInterval = 5;

    for (const auto &c : bugsuite::allBugCases()) {
        auto a = bugsuite::runBugCase(c, fine);
        auto b = bugsuite::runBugCase(c, delta);
        EXPECT_EQ(fingerprint(a), fingerprint(b))
            << c.workload << " " << c.id;
        EXPECT_EQ(bugsuite::detected(c, a), bugsuite::detected(c, b))
            << c.workload << " " << c.id;
    }
}

/* --------------------------------------------------------------- */
/* Differential fuzzing across restore schedules                   */
/* --------------------------------------------------------------- */

/**
 * Random {write, flush, fence} programs over cache-line-separated
 * slots (the test_fuzz_persistence shape), plus an occasional large
 * streaming write so delta pages see multi-page spans.
 */
void
fuzzProgram(PmRuntime &rt, std::uint64_t seed, unsigned length)
{
    constexpr unsigned numSlots = 6;
    constexpr std::size_t slotStride = 128;
    Rng rng(seed);
    trace::RoiScope roi(rt);
    std::uint64_t v = seed * 1000 + 1;
    for (unsigned i = 0; i < length; i++) {
        std::uint64_t pick = rng.below(12);
        unsigned slot = static_cast<unsigned>(rng.below(numSlots));
        auto *host = rt.pool().at<std::uint64_t>(slot * slotStride);
        if (pick < 5) {
            rt.store(*host, v++);
        } else if (pick < 8) {
            rt.clwb(host, 8);
        } else if (pick < 10) {
            rt.sfence();
        } else {
            // A 600-byte streaming write spans page boundaries at the
            // 256-byte delta page size.
            std::uint8_t buf[600];
            std::memset(buf, static_cast<int>(v++ & 0xFF), sizeof(buf));
            rt.ntCopyToPm(host, buf, sizeof(buf));
        }
    }
    rt.sfence();
}

void
fuzzPost(PmRuntime &rt)
{
    constexpr unsigned numSlots = 6;
    constexpr std::size_t slotStride = 128;
    trace::RoiScope roi(rt);
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < numSlots; s++)
        sum += rt.load(*rt.pool().at<std::uint64_t>(s * slotStride));
    // Keep the reads observable.
    rt.store(*rt.pool().at<std::uint64_t>(numSlots * slotStride), sum);
    rt.clwb(rt.pool().at<std::uint64_t>(numSlots * slotStride), 8);
    rt.sfence();
}

class DeltaFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DeltaFuzz, SameImagesAcrossKnobSettings)
{
    std::uint64_t seed = GetParam();

    auto run = [&](const DetectorConfig &dcfg) {
        std::vector<std::uint64_t> hashes;
        auto res = Campaign::forProgram(
                       [&](PmRuntime &rt) {
                           fuzzProgram(rt, seed, 40);
                       },
                       [&](PmRuntime &rt) {
                           pm::PmPool &p = rt.pool();
                           hashes.push_back(fnv1a(p.data(), p.size()));
                           fuzzPost(rt);
                       })
                       .poolSize(1 << 16)
                       .config(dcfg)
                       .run();
        return std::make_pair(fingerprint(res), hashes);
    };

    // Every setting's pool hashes must match the first one's; the
    // validation memcmps each restored image against the full one.
    DetectorConfig base;
    base.elideEmptyFailurePoints = false; // every fence tested
    std::optional<decltype(run(base))> want;

    for (std::size_t interval : {std::size_t{1}, std::size_t{2},
                                 std::size_t{1000}}) {
        for (std::size_t pageSize : {std::size_t{256},
                                     std::size_t{4096}}) {
            DetectorConfig dcfg = base;
            dcfg.deltaPageSize = pageSize;
            dcfg.deltaCheckpointInterval = interval;
            auto got = run(dcfg);
            if (!want) {
                want = got;
                continue;
            }
            EXPECT_EQ(got.first, want->first)
                << "seed " << seed << " interval " << interval
                << " page " << pageSize;
            EXPECT_EQ(got.second, want->second)
                << "seed " << seed << " interval " << interval
                << " page " << pageSize;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

} // namespace
