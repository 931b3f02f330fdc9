/**
 * @file
 * Auditing a real storage engine: run a full XFDetector campaign over
 * the PM-Redis workload, first as shipped (reproducing §6.3.2 bug 3 —
 * the server initializes num_dict_entries outside any transaction),
 * then with the initialization fixed.
 *
 * Build & run:  ./examples/kvstore_audit
 */

#include <cstdio>

#include "workloads/workload.hh"
#include "xfd.hh"

using namespace xfd;

namespace
{

/**
 * A minimal CampaignHooks implementation: the versioned observer
 * interface consolidates the old scattered std::function callbacks.
 * Here we only watch progress; onPreTraceReady / onFailurePoint keep
 * their empty defaults.
 */
struct AuditHooks : core::CampaignHooks
{
    void
    onProgress(const core::ProgressUpdate &u) override
    {
        // done/total count failure points *covered* — a batched
        // signature group lands all its members at once.
        std::fprintf(stderr, "\r  audited %zu/%zu points, %zu bugs",
                     u.done, u.total, u.bugs);
        if (u.done == u.total)
            std::fprintf(stderr, "\n");
    }
};

core::CampaignResult
audit(bool shipped)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 0;
    cfg.testOps = 6;
    cfg.postOps = 4;
    cfg.roiFromStart = true; // cover server initialization
    if (shipped)
        cfg.bugs.enable("redis.shipped.init_no_tx");
    auto redis = workloads::makeWorkload("redis", std::move(cfg));

    core::CampaignObserver obsv;
    AuditHooks hooks;
    obsv.hooks = &hooks;
    core::DetectorConfig dcfg;
    dcfg.backend = "batched"; // fold signature-equivalent points
    return Campaign::forProgram(
               [&](trace::PmRuntime &rt) { redis->pre(rt); },
               [&](trace::PmRuntime &rt) { redis->post(rt); })
        .poolSize(1 << 22)
        .config(dcfg)
        .observer(&obsv)
        .run();
}

void
report(const char *title, const core::CampaignResult &res)
{
    const core::CampaignStats &st = res.statistics();
    std::printf("==== %s ====\n%s", title, res.summary().c_str());
    std::printf("backend \"%s\": %zu groups scheduled, %zu points "
                "folded into representatives\n\n",
                res.config().backend.c_str(), st.batchGroups,
                st.lintPrunedPoints);
}

} // namespace

int
main()
{
    setVerbose(false);

    report("PM-Redis, as shipped", audit(true));
    report("PM-Redis, initialization transactional", audit(false));
    return 0;
}
