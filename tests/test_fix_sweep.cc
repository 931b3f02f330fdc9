/**
 * @file
 * Repair-advisor acceptance sweep over the synthetic bug suite.
 *
 * The advisor's contract splits the registry in two:
 *
 *  - Every performance-bug case and every flush-ordering race case
 *    (a missing flush, a missing fence, or a plain store where a
 *    persist was required) must end with at least one *verified*
 *    repair and zero regressions — these defects have a sound
 *    trace-level inverse and the machine check must prove it.
 *
 *  - Semantic and recovery-logic cases (a missing CRC check, replay
 *    past the checkpoint, a commit-window protocol violation) have no
 *    sound trace-level repair: the advisor must stay honest and
 *    report advisory/incomplete plans instead of a bogus "verified"
 *    — and still must not regress anything.
 *
 * Cases that produce no findings at this campaign size (the bug path
 * never executes) are excluded; a fix campaign with nothing to fix is
 * vacuous, not wrong.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fix/fix.hh"
#include "harness.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;

/** Workload a bug-suite case id runs on ("wal.*" → wal_btree). */
std::string
workloadOf(const std::string &bugId)
{
    std::string prefix = bugId.substr(0, bugId.find('.'));
    return prefix == "wal" ? "wal_btree" : prefix;
}

/**
 * Fix campaign over one case at the acceptance size (6 init / 6 test
 * ops — several perf defects only manifest from size 6 up). Oracle
 * off: the sweep asserts plan verdicts, not oracle conformance, and
 * the oracle path has its own suite.
 */
fix::FixReport
sweepCase(const std::string &bugId)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 6;
    wcfg.testOps = 6;
    wcfg.postOps = 2;
    wcfg.bugs.enable(bugId);
    std::shared_ptr<workloads::Workload> w =
        workloads::makeWorkload(workloadOf(bugId), wcfg);

    fix::FixConfig cfg;
    cfg.pre = [w](PmRuntime &rt) { w->pre(rt); };
    cfg.post = [w](PmRuntime &rt) { w->post(rt); };
    cfg.poolBytes = xfdtest::defaultPoolBytes;
    cfg.withOracle = false;
    return fix::runFixCampaign(cfg);
}

void
expectVerifiedRepair(const std::string &bugId)
{
    SCOPED_TRACE(bugId);
    fix::FixReport rep = sweepCase(bugId);
    ASSERT_FALSE(rep.baseline.findings().empty())
        << "case no longer manifests at the sweep size";
    EXPECT_GE(rep.verified, 1u) << rep.scoreboard();
    EXPECT_EQ(rep.regressed, 0u) << rep.scoreboard();
}

TEST(FixSweep, PerformanceBugsAllGetVerifiedRepairs)
{
    for (const char *id : {
             "btree.perf.double_add",
             "btree.perf.extra_flush",
             "ctree.perf.double_add",
             "rbtree.perf.double_add",
             "hashmap_tx.perf.double_add",
             "redis.perf.double_add",
             "hashmap_atomic.perf.double_persist_entry",
             "hashmap_atomic.perf.flush_clean_count",
         })
        expectVerifiedRepair(id);
}

TEST(FixSweep, HashmapFlushOrderingRacesAllGetVerifiedRepairs)
{
    for (const char *id : {
             "hashmap_atomic.race.entry_no_persist",
             "hashmap_atomic.race.entry_partial_persist",
             "hashmap_atomic.race.entry_clwb_no_fence",
             "hashmap_atomic.race.slot_plain_store",
             "hashmap_atomic.race.slot_clwb_no_fence",
             "hashmap_atomic.race.count_no_persist",
             "hashmap_atomic.race.remove_slot_plain_store",
             "hashmap_atomic.race.remove_count_no_persist",
             "hashmap_atomic.race.next_write_after_persist",
         })
        expectVerifiedRepair(id);
}

TEST(FixSweep, MemcachedAndWalFlushOrderingRacesAllGetVerifiedRepairs)
{
    for (const char *id : {
             "memcached.race.item_no_persist",
             "memcached.race.link_plain_store",
             "wal.race.unflushed_log_head",
             "wal.race.commit_before_payload",
             "wal.race.torn_record_accepted",
             "wal.race.truncate_before_apply",
         })
        expectVerifiedRepair(id);
}

/**
 * The honesty half: semantic defects must not produce a fraudulent
 * "verified" story. The advisor may verify genuine side findings
 * (e.g. an unfenced writeback next to the semantic bug), but at least
 * one plan must remain advisory or incomplete — the semantic defect
 * itself has no sound trace-level repair — and nothing may regress.
 */
void
expectHonestIncomplete(const std::string &bugId)
{
    SCOPED_TRACE(bugId);
    fix::FixReport rep = sweepCase(bugId);
    ASSERT_FALSE(rep.baseline.findings().empty())
        << "case no longer manifests at the sweep size";
    EXPECT_EQ(rep.regressed, 0u) << rep.scoreboard();
    EXPECT_GE(rep.incomplete + rep.unplanned.size(), 1u)
        << rep.scoreboard();
    // Not everything may be claimed fixed.
    EXPECT_LT(rep.verified, rep.plans() + rep.unplanned.size())
        << rep.scoreboard();
}

TEST(FixSweep, SemanticCasesStayHonest)
{
    for (const char *id : {
             "wal.recovery.missing_crc_check",
             "wal.sem.replay_past_checkpoint",
             "hashmap_atomic.sem.count_outside_window",
         })
        expectHonestIncomplete(id);
}

/** missing_crc_check specifically must surface an advisory plan. */
TEST(FixSweep, MissingCrcCheckIsAdvisory)
{
    fix::FixReport rep = sweepCase("wal.recovery.missing_crc_check");
    bool sawAdvisory = false;
    for (const auto &o : rep.outcomes) {
        if (o.plan.advisory) {
            sawAdvisory = true;
            EXPECT_EQ(o.verdict, fix::Verdict::Incomplete)
                << o.plan.describe();
        }
    }
    EXPECT_TRUE(sawAdvisory || !rep.unplanned.empty())
        << rep.scoreboard();
}

} // namespace
