/**
 * @file
 * Unit tests for the PM substrate: pool addressing, snapshots, images.
 */

#include <gtest/gtest.h>

#include <set>

#include "pm/cow.hh"
#include "pm/image.hh"
#include "pm/pool.hh"

namespace
{

using namespace xfd;
using pm::PmImage;
using pm::PmPool;
using pm::PPtr;

TEST(PmPool, BaseAndSize)
{
    PmPool pool(1 << 20);
    EXPECT_EQ(pool.base(), defaultPoolBase);
    EXPECT_EQ(pool.size(), 1u << 20);
    EXPECT_EQ(pool.range().begin, defaultPoolBase);
    EXPECT_EQ(pool.range().end, defaultPoolBase + (1 << 20));
}

TEST(PmPool, CustomBase)
{
    PmPool pool(4096, 0x2000000000ull);
    EXPECT_EQ(pool.base(), 0x2000000000ull);
}

TEST(PmPool, ContainsBoundaries)
{
    PmPool pool(4096);
    EXPECT_TRUE(pool.contains(pool.base()));
    EXPECT_TRUE(pool.contains(pool.base() + 4095));
    EXPECT_FALSE(pool.contains(pool.base() + 4096));
    EXPECT_FALSE(pool.contains(pool.base() - 1));
    EXPECT_TRUE(pool.contains(pool.base(), 4096));
    EXPECT_FALSE(pool.contains(pool.base() + 1, 4096));
}

TEST(PmPool, AddressTranslationRoundTrip)
{
    PmPool pool(4096);
    Addr a = pool.base() + 128;
    void *host = pool.toHost(a);
    EXPECT_EQ(pool.toAddr(host), a);
    EXPECT_TRUE(pool.hosts(host));
    int local = 0;
    EXPECT_FALSE(pool.hosts(&local));
}

TEST(PmPool, InitiallyZeroed)
{
    PmPool pool(4096);
    for (std::size_t i = 0; i < 4096; i += 512)
        EXPECT_EQ(pool.data()[i], 0u);
}

TEST(PmPool, TypedAccess)
{
    PmPool pool(4096);
    auto *v = pool.at<std::uint64_t>(64);
    *v = 0xdeadbeef;
    EXPECT_EQ(*pool.at<std::uint64_t>(64), 0xdeadbeefu);
}

TEST(PmPool, WipeClears)
{
    PmPool pool(4096);
    *pool.at<std::uint32_t>(0) = 7;
    pool.wipe();
    EXPECT_EQ(*pool.at<std::uint32_t>(0), 0u);
}

TEST(PmImage, SnapshotRestoreRoundTrip)
{
    PmPool pool(4096);
    *pool.at<std::uint32_t>(100) = 42;
    PmImage img = pool.snapshot();
    *pool.at<std::uint32_t>(100) = 99;
    pool.restore(img);
    EXPECT_EQ(*pool.at<std::uint32_t>(100), 42u);
}

TEST(PmImage, ApplyWrite)
{
    PmPool pool(4096);
    PmImage img = pool.snapshot();
    std::uint32_t v = 0x01020304;
    img.applyWrite(pool.base() + 8, &v, sizeof(v));
    img.copyTo(pool);
    EXPECT_EQ(*pool.at<std::uint32_t>(8), 0x01020304u);
}

TEST(PmImage, ApplyWriteIndependentOfPool)
{
    PmPool pool(4096);
    PmImage img = pool.snapshot();
    std::uint32_t v = 7;
    img.applyWrite(pool.base(), &v, sizeof(v));
    // Pool untouched until copyTo.
    EXPECT_EQ(*pool.at<std::uint32_t>(0), 0u);
}

TEST(CowImage, NonZeroPagesAtAnyGranularity)
{
    // An image whose size is no multiple of its page size, with set
    // bytes at page edges, inside a word and in the ragged tail.
    std::vector<std::uint8_t> bytes(3 * 4096 + 100, 0);
    for (std::size_t off : {std::size_t{0}, std::size_t{4095},
                            std::size_t{8192 + 13}, std::size_t{12300}})
        bytes[off] = 1;
    pm::CowImage img(PmImage(defaultPoolBase, bytes), 4096);
    for (std::size_t pageSize : {std::size_t{64}, std::size_t{1000},
                                 std::size_t{4096}, std::size_t{16384}}) {
        std::set<std::uint32_t> want;
        for (std::size_t i = 0; i < bytes.size(); i++) {
            if (bytes[i])
                want.insert(static_cast<std::uint32_t>(i / pageSize));
        }
        std::set<std::uint32_t> got;
        img.collectNonZeroPages(pageSize, got);
        EXPECT_EQ(got, want) << "page size " << pageSize;
    }
}

TEST(PPtrTest, DerefOfNullIsAWildAccess)
{
    PmPool pool(1 << 16);
    PPtr<std::uint64_t> p(pool.base() + 64);
    EXPECT_EQ(p.deref(pool), p.get(pool));
    EXPECT_THROW(PPtr<std::uint64_t>().deref(pool), pm::BadPmAccess);
}

TEST(PPtrTest, NullAndResolve)
{
    PmPool pool(4096);
    PPtr<std::uint64_t> p;
    EXPECT_TRUE(p.null());
    EXPECT_FALSE(p);
    EXPECT_EQ(p.get(pool), nullptr);

    PPtr<std::uint64_t> q(pool.base() + 256);
    EXPECT_FALSE(q.null());
    *q.get(pool) = 5;
    EXPECT_EQ(*pool.at<std::uint64_t>(256), 5u);
}

TEST(PPtrTest, Equality)
{
    PPtr<int> a(defaultPoolBase + 8);
    PPtr<int> b(defaultPoolBase + 8);
    PPtr<int> c(defaultPoolBase + 16);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(AddrRangeTest, OverlapAndContain)
{
    AddrRange r{100, 200};
    EXPECT_TRUE(r.contains(100));
    EXPECT_TRUE(r.contains(199));
    EXPECT_FALSE(r.contains(200));
    EXPECT_TRUE(r.overlaps({150, 250}));
    EXPECT_TRUE(r.overlaps({0, 101}));
    EXPECT_FALSE(r.overlaps({200, 300}));
    EXPECT_FALSE(r.overlaps({0, 100}));
    EXPECT_EQ(r.size(), 100u);
}

TEST(LineBaseTest, Alignment)
{
    EXPECT_EQ(xfd::lineBase(0), 0u);
    EXPECT_EQ(xfd::lineBase(63), 0u);
    EXPECT_EQ(xfd::lineBase(64), 64u);
    EXPECT_EQ(xfd::lineBase(130), 128u);
}

} // namespace
