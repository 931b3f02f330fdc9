/**
 * @file
 * Repair-advisor cost/payoff table. Per representative bug-suite
 * case: baseline findings, plans synthesized, verdict counts, and the
 * wall-clock split between the baseline campaign and the per-plan
 * machine checks (each check re-traces and re-runs the campaign, so
 * check cost ~ plans × campaign cost). Emits BENCH_fix.json;
 * XFD_BENCH_QUICK drops the oracle cross-check for CI.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "fix/fix.hh"

using namespace xfd;
using namespace xfd::bench;

namespace
{

struct Row
{
    std::string bugId;
    std::size_t baselineFindings = 0;
    std::size_t plans = 0;
    std::size_t verified = 0;
    std::size_t incomplete = 0;
    std::size_t regressed = 0;
    double seconds = 0;
};

Row
runOne(const std::string &bugId, bool withOracle)
{
    Row row;
    row.bugId = bugId;

    std::string prefix = bugId.substr(0, bugId.find('.'));
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 6;
    wcfg.testOps = 6;
    wcfg.postOps = 2;
    wcfg.bugs.enable(bugId);
    std::shared_ptr<workloads::Workload> w = workloads::makeWorkload(
        prefix == "wal" ? "wal_btree" : prefix, wcfg);

    fix::FixConfig cfg;
    cfg.pre = [w](trace::PmRuntime &rt) { w->pre(rt); };
    cfg.post = [w](trace::PmRuntime &rt) { w->post(rt); };
    cfg.poolBytes = benchPoolSize;
    cfg.withOracle = withOracle;

    auto t0 = std::chrono::steady_clock::now();
    fix::FixReport rep = fix::runFixCampaign(cfg);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;

    row.baselineFindings = rep.baseline.findings().size();
    row.plans = rep.plans();
    row.verified = rep.verified;
    row.incomplete = rep.incomplete;
    row.regressed = rep.regressed;
    row.seconds = dt.count();
    return row;
}

} // namespace

int
main()
{
    setVerbose(false);
    const bool quick = std::getenv("XFD_BENCH_QUICK") != nullptr;

    // One case per repair shape: drop_flush (redundant writeback),
    // skip_tx_add (duplicated snapshot), add_flush_fence (unpersisted
    // store), add_fence (unfenced writeback), reorder_commit-adjacent
    // epoch split, and an advisory-only semantic defect.
    const std::vector<std::string> cases = {
        "btree.perf.extra_flush",
        "btree.perf.double_add",
        "hashmap_atomic.race.entry_no_persist",
        "hashmap_atomic.race.entry_clwb_no_fence",
        "hashmap_atomic.race.count_no_persist",
        "wal.race.unflushed_log_head",
        "wal.recovery.missing_crc_check",
    };

    std::vector<Row> rows;
    for (const std::string &id : cases)
        rows.push_back(runOne(id, !quick));

    std::printf("%-42s %9s %6s %9s %11s %10s %9s\n", "case",
                "findings", "plans", "verified", "incomplete",
                "regressed", "secs");
    rule();
    for (const Row &r : rows) {
        std::printf("%-42s %9zu %6zu %9zu %11zu %10zu %8.3f\n",
                    r.bugId.c_str(), r.baselineFindings, r.plans,
                    r.verified, r.incomplete, r.regressed, r.seconds);
    }

    writeBenchJson("fix", [&](obs::JsonWriter &w) {
        w.field("quick", quick);
        w.key("cases").beginArray();
        for (const Row &r : rows) {
            w.beginObject();
            w.field("case", r.bugId);
            w.field("baseline_findings",
                    static_cast<std::uint64_t>(r.baselineFindings));
            w.field("plans", static_cast<std::uint64_t>(r.plans));
            w.field("verified",
                    static_cast<std::uint64_t>(r.verified));
            w.field("incomplete",
                    static_cast<std::uint64_t>(r.incomplete));
            w.field("regressed",
                    static_cast<std::uint64_t>(r.regressed));
            w.field("seconds", r.seconds);
            w.endObject();
        }
        w.endArray();
    });
    return 0;
}
