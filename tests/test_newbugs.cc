/**
 * @file
 * §6.3.2 — the four new bugs, tested individually: each must be
 * detected as shipped and disappear when the fix is applied, and the
 * reports must point at the right reading site.
 */

#include <gtest/gtest.h>

#include "bugsuite/registry.hh"
#include "harness.hh"
#include "pmlib/objpool.hh"

namespace
{

using namespace xfd;
using bugsuite::allBugCases;
using bugsuite::BugCase;
using core::BugType;

const BugCase &
findCase(const std::string &id_or_workload)
{
    for (const auto &c : allBugCases()) {
        if (c.origin != bugsuite::Origin::NewBug)
            continue;
        if (c.id == id_or_workload || c.workload == id_or_workload)
            return c;
    }
    throw std::runtime_error("case not found");
}

bool
anyReaderIn(const core::CampaignResult &res, const char *file_part)
{
    for (const auto &b : res.findings()) {
        if (std::string(b.reader.file).find(file_part) !=
            std::string::npos) {
            return true;
        }
    }
    return false;
}

TEST(NewBugs, Bug1HashmapMetadataUnpersisted)
{
    const auto &c = findCase("hashmap_atomic.shipped.meta_no_persist");
    auto res = bugsuite::runBugCase(c);
    EXPECT_GE(res.count(BugType::CrossFailureRace), 1u)
        << res.summary();
    // The readers are the hash function's metadata loads.
    EXPECT_TRUE(anyReaderIn(res, "hashmap_atomic.cc"));

    BugCase fixed = c;
    fixed.id.clear();
    auto clean = bugsuite::runBugCase(fixed);
    EXPECT_EQ(clean.findings().size(), 0u) << clean.summary();
}

TEST(NewBugs, Bug2CountNeverInitialized)
{
    const auto &c = findCase("hashmap_atomic.shipped.count_uninit");
    auto res = bugsuite::runBugCase(c);
    ASSERT_GE(res.count(BugType::CrossFailureRace), 1u)
        << res.summary();
    bool uninit_note = false;
    for (const auto &b : res.findings()) {
        if (b.note.find("never initialized") != std::string::npos)
            uninit_note = true;
    }
    EXPECT_TRUE(uninit_note) << res.summary();

    BugCase fixed = c;
    fixed.id.clear();
    EXPECT_EQ(bugsuite::runBugCase(fixed).findings().size(), 0u);
}

TEST(NewBugs, Bug3RedisInitUnprotected)
{
    const auto &c = findCase("redis.shipped.init_no_tx");
    auto res = bugsuite::runBugCase(c);
    EXPECT_GE(res.count(BugType::CrossFailureRace), 1u)
        << res.summary();
    EXPECT_TRUE(anyReaderIn(res, "mini_redis.cc"));

    BugCase fixed = c;
    fixed.id.clear();
    EXPECT_EQ(bugsuite::runBugCase(fixed).findings().size(), 0u);
}

TEST(NewBugs, Bug4PoolCreationNotFailureAtomic)
{
    const auto &c = findCase("pool_create");
    auto res = bugsuite::runBugCase(c);
    EXPECT_GE(res.count(BugType::RecoveryFailure), 1u)
        << res.summary();
    bool metadata_note = false;
    for (const auto &b : res.findings()) {
        if (b.note.find("incomplete pool metadata") != std::string::npos)
            metadata_note = true;
    }
    EXPECT_TRUE(metadata_note);

    // The fix: recovery uses openOrCreate() to reformat the half
    // pool; no finding remains.
    auto clean = xfdtest::runCampaign(
        [](trace::PmRuntime &rt) {
            trace::RoiScope roi(rt);
            pmlib::ObjPool::create(rt, "bug4fix", 64);
        },
        [](trace::PmRuntime &rt) {
            trace::RoiScope roi(rt);
            pmlib::ObjPool::openOrCreate(rt, "bug4fix", 64);
        });
    EXPECT_TRUE(xfdtest::hasNoFindings(clean));
}

TEST(NewBugs, AllFourAnnotatedMinimally)
{
    // Paper: "XFDetector is effective at detecting cross-failure bugs
    // with minimum annotation" — the hashmap bugs needed only the
    // commit-variable registration, Redis none beyond the RoI.
    std::size_t n = 0;
    for (const auto &c : allBugCases()) {
        if (c.origin == bugsuite::Origin::NewBug)
            n++;
    }
    EXPECT_EQ(n, 4u);
}

} // namespace
