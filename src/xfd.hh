/**
 * @file
 * xfd.hh — the public umbrella header and stable entry point.
 *
 * Most users need exactly one type from this repository: a campaign.
 *
 *     #include "xfd.hh"
 *
 *     auto res = xfd::Campaign::forProgram(pre, post)
 *                    .poolSize(1 << 20)
 *                    .threads(4)
 *                    .run();
 *     if (res.hasBugs())
 *         std::puts(res.summary().c_str());
 *
 * Detector options travel as one core::DetectorConfig, set with
 * config(); the builder's own setters cover only what is not a
 * detector option (the pool, threads, the observer):
 *
 *     xfd::DetectorConfig cfg;
 *     cfg.backend = "batched";
 *     auto res = xfd::Campaign::forProgram(pre, post).config(cfg).run();
 *
 * Campaign is a builder over core::Driver: it owns the PM pool
 * (unless one is supplied with onPool()) and dispatches to the
 * serial or parallel driver. Everything it does can also be done
 * with the low-level layer (pm::PmPool + core::Driver), which
 * remains public and documented — the facade only removes the
 * boilerplate and keeps call sites stable while the layers
 * underneath evolve (the delta-image engine landed without touching
 * any Campaign user).
 *
 * README.md "Migrating to xfd::Campaign" maps the old wiring to this
 * API.
 */

#ifndef XFD_XFD_HH
#define XFD_XFD_HH

#include <memory>
#include <utility>

#include "core/campaign_json.hh"
#include "core/config.hh"
#include "core/driver.hh"
#include "core/observer.hh"
#include "obs/serve.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"

namespace xfd
{

/** @name Stable aliases for the result-side vocabulary types. @{ */
using core::BugReport;
using core::BugType;
using core::CampaignObserver;
using core::CampaignResult;
using core::CampaignStats;
using core::DetectorConfig;
using core::ProgramFn;
/** @} */

/**
 * Fluent builder for a detection campaign. Construct with
 * forProgram(), chain option setters, finish with run(). A Campaign
 * is single-use state, not a long-lived object: run() may be called
 * repeatedly (e.g. buggy vs fixed variants reuse one configuration),
 * and each call starts from a fresh internally-owned pool unless
 * onPool() pinned an external one.
 */
class Campaign
{
  public:
    /**
     * @param pre  the pre-failure stage (setup + RoI operations)
     * @param post the post-failure stage (recovery + resumption),
     *             run once per injected failure point
     */
    static Campaign
    forProgram(ProgramFn pre, ProgramFn post)
    {
        return Campaign(std::move(pre), std::move(post));
    }

    /** Capacity of the internally-owned pool (default 4 MiB). */
    Campaign &
    poolSize(std::size_t bytes)
    {
        poolBytes = bytes;
        return *this;
    }

    /** Base PM address of the internally-owned pool. */
    Campaign &
    poolBase(Addr base)
    {
        baseAddr = base;
        return *this;
    }

    /**
     * Run on an existing pool instead of an internally-owned one
     * (e.g. when the caller pre-seeds pool contents). The pool must
     * outlive run(); poolSize()/poolBase() are ignored.
     */
    Campaign &
    onPool(pm::PmPool &pool)
    {
        external = &pool;
        return *this;
    }

    /** Post-failure executions distributed over @p n workers. */
    Campaign &
    threads(unsigned n)
    {
        nThreads = n;
        return *this;
    }

    /**
     * Set every detector option (see DetectorConfig): the one way to
     * configure detection. The other setters cover the campaign
     * itself (pool, threads, observer).
     */
    Campaign &
    config(const DetectorConfig &c)
    {
        cfg = c;
        return *this;
    }

    /** Attach observability sinks; must outlive run(). */
    Campaign &
    observer(CampaignObserver *o)
    {
        obs = o;
        return *this;
    }

    /** Execute the campaign. */
    CampaignResult
    run()
    {
        std::unique_ptr<pm::PmPool> owned;
        pm::PmPool *pool = external;
        if (!pool) {
            owned = std::make_unique<pm::PmPool>(poolBytes, baseAddr);
            pool = owned.get();
        }
        core::Driver driver(*pool, cfg);

        // Live outputs need an observer to host the registry; make an
        // internal one when the caller did not attach their own. A
        // caller-managed obs::LiveSession (observer->live already
        // enabled, as xfdetect does process-wide) takes precedence —
        // never stack a second server on the same registry.
        std::unique_ptr<CampaignObserver> internalObs;
        CampaignObserver *o = obs;
        if (!o && cfg.liveRequested()) {
            internalObs = std::make_unique<CampaignObserver>();
            internalObs->timeline.setEnabled(false);
            o = internalObs.get();
        }
        std::unique_ptr<obs::LiveSession> session;
        if (o && cfg.liveRequested() && !o->live.enabled()) {
            obs::LiveSession::Options opt;
            opt.serve = cfg.livePort != 0;
            opt.port = static_cast<std::uint16_t>(cfg.livePort);
            opt.jsonlPath = cfg.liveJsonlPath;
            session =
                std::make_unique<obs::LiveSession>(o->live, opt);
        }
        if (o)
            driver.setObserver(o);
        return driver.runParallel(preFn, postFn, nThreads);
    }

    /**
     * Fig. 12b baselines: run only the pre-failure stage.
     * @param traced trace without detecting when true; disable
     *               tracing too when false.
     * @return wall-clock seconds.
     */
    double
    baseline(bool traced)
    {
        std::unique_ptr<pm::PmPool> owned;
        pm::PmPool *pool = external;
        if (!pool) {
            owned = std::make_unique<pm::PmPool>(poolBytes, baseAddr);
            pool = owned.get();
        }
        core::Driver driver(*pool, cfg);
        return driver.runBaseline(preFn, traced);
    }

  private:
    Campaign(ProgramFn pre, ProgramFn post)
        : preFn(std::move(pre)), postFn(std::move(post))
    {
    }

    ProgramFn preFn;
    ProgramFn postFn;
    DetectorConfig cfg;
    std::size_t poolBytes = std::size_t{1} << 22;
    Addr baseAddr = defaultPoolBase;
    pm::PmPool *external = nullptr;
    unsigned nThreads = 1;
    CampaignObserver *obs = nullptr;
};

} // namespace xfd

#endif // XFD_XFD_HH
