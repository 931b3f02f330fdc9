/**
 * @file
 * The XFDetector campaign driver (paper Fig. 7 / Fig. 8).
 *
 * One detection campaign over a program:
 *  1. run the pre-failure stage once under tracing,
 *  2. plan failure points before every ordering point (§4.2),
 *  3. for each failure point: materialize the PM image as of that
 *     point (initial image + all recorded writes before it, persisted
 *     or not — footnote 3), run the post-failure stage (recovery +
 *     resumption) on it under tracing,
 *  4. replay the pre-failure trace incrementally into the shadow PM
 *     and check every post-failure read against it (§5.4),
 *  5. aggregate deduplicated bug reports and timing statistics.
 *
 * runParallel() implements the future work the paper names in §6.2.1
 * ("the post-failure executions are independent as they operate on a
 * copy of the original PM image, and therefore, can be parallelized"):
 * the schedule — one work item per failure point, or per signature
 * group under --backend=batched — is pulled dynamically off a shared
 * queue by worker threads, each with its own pool replica, shadow PM
 * and replay cursors. Items are consumed in ascending seq order, so
 * every worker's cursors stay monotonic regardless of which items it
 * wins, and findings collect per item and merge in item order, so
 * the result is deterministic and identical to the serial run.
 */

#ifndef XFD_CORE_DRIVER_HH
#define XFD_CORE_DRIVER_HH

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/bug_report.hh"
#include "core/config.hh"
#include "core/failure_planner.hh"
#include "core/observer.hh"
#include "core/shadow_pm.hh"
#include "obs/phase_profiler.hh"
#include "pm/cow.hh"
#include "pm/delta.hh"
#include "pm/image.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"

namespace xfd::lint
{
class FrontierState;
} // namespace xfd::lint

namespace xfd::core
{

/** A traced program stage: receives the tracing runtime. */
using ProgramFn = std::function<void(trace::PmRuntime &)>;

/**
 * Timing and volume statistics for one campaign; campaignMetrics()
 * (core/campaign_metrics.hh) names, exports and merges each number.
 */
struct CampaignStats
{
    std::size_t failurePoints = 0;
    std::size_t orderingCandidates = 0;
    std::size_t elidedPoints = 0;
    /**
     * Points folded into a signature group's representative and not
     * executed (0 unless --backend=batched).
     */
    std::size_t lintPrunedPoints = 0;
    /** Signature groups scheduled (0 unless --backend=batched). */
    std::size_t batchGroups = 0;
    /** Same-value stores elided at emit time (--elide-same-value). */
    std::size_t sameValueElided = 0;
    std::size_t postExecutions = 0;
    /**
     * @name Crash-state exploration volume (--crash-states)
     * Partial candidates only — the anchor run is not counted here.
     * @{
     */
    /** Partial candidate masks enumerated over all failure points. */
    std::size_t crashStatesEnumerated = 0;
    /** Partial candidates actually executed (recovery + classify). */
    std::size_t crashStatesExplored = 0;
    /** Candidates skipped by equivalence-class pruning. */
    std::size_t crashStatesPruned = 0;
    /**
     * One record per pruned candidate: where it was skipped, the
     * failure point whose identical candidate already executed, and
     * the mask — the conformance tier oracle-rechecks exactly these.
     */
    struct PrunedCrashCandidate
    {
        std::uint32_t fp = 0;
        std::uint32_t repFp = 0;
        std::string maskHex;
    };
    std::vector<PrunedCrashCandidate> crashPruned;
    /** @} */
    std::size_t preTraceEntries = 0;
    std::size_t postTraceEntries = 0;
    double preSeconds = 0;
    double postSeconds = 0;
    double backendSeconds = 0;
    std::size_t checksPerformed = 0;
    std::size_t checksSkipped = 0;
    /** Worker threads used (1 = serial). */
    unsigned threads = 1;
    /** Exec-pool restore volume of the delta engine. */
    pm::DeltaRestoreStats restore;
    /** Pool capacity in bytes (baseline for restore-volume ratios). */
    std::size_t poolBytes = 0;
    /**
     * Per-phase wall-time attribution of the campaign loop. The
     * restore/classify entries reuse the exact measured intervals
     * that feed backendSeconds, so in a serial campaign
     * phases.backendAttributed() == backendSeconds identically;
     * phase *counts* are serial/parallel-invariant.
     */
    obs::PhaseTotals phases;

    double totalSeconds() const
    {
        return preSeconds + postSeconds + backendSeconds;
    }
};

/**
 * Everything a campaign produced: findings, stats, per-phase timing
 * and the configuration it ran under — the first-class return object
 * of Driver::run()/xfd::Campaign::run(). Read-only outside the driver.
 */
class CampaignResult
{
  public:
    /** The deduplicated findings, in deterministic merge order. */
    const std::vector<BugReport> &findings() const { return reports; }

    /** Timing/volume statistics of the campaign. */
    const CampaignStats &statistics() const { return campaignStats; }

    /** Per-phase wall-time attribution of the campaign loop. */
    const obs::PhaseTotals &
    phases() const
    {
        return campaignStats.phases;
    }

    /**
     * Charge @p seconds of a layer that extends the campaign (the
     * oracle harness) to @p phase.
     */
    void
    notePhase(obs::Phase phase, double seconds)
    {
        campaignStats.phases.note(phase, seconds);
    }

    /** The DetectorConfig this campaign actually ran with. */
    const DetectorConfig &config() const { return runConfig; }

    /** @return number of distinct findings of type @p t. */
    std::size_t count(BugType t) const;

    bool hasBugs() const { return !reports.empty(); }

    /** Multi-line human-readable report. */
    std::string summary() const;

    /**
     * Order-insensitive identity of the findings: one sorted line
     * per finding ("type|reader|writer|note"), independent of
     * scheduling, worker count and backend mode. Byte-comparable
     * across runs — the batch-equivalence tests and the CI
     * batch-smoke job diff exactly this string.
     */
    std::string fingerprint() const;

    /**
     * Findings first exposed on a *partial* crash image: their
     * persistedMask provenance has at least one cleared bit, i.e. the
     * anchor (all-updates) image of the same failure point did not
     * produce them. Zero unless the campaign ran --crash-states (the
     * durable tier's all-zero masks have no anchor to differ from).
     */
    std::size_t partialImageFindings() const;

  private:
    friend class Driver;

    std::vector<BugReport> reports;
    CampaignStats campaignStats;
    DetectorConfig runConfig;
};

/** Orchestrates detection campaigns over a PM pool. */
class Driver
{
  public:
    explicit Driver(pm::PmPool &pool, DetectorConfig cfg = {});

    /**
     * Run a full detection campaign.
     *
     * @param pre  the pre-failure stage (setup + RoI operations)
     * @param post the post-failure stage (recovery + resumption),
     *             invoked once per failure point on the reconstructed
     *             PM image
     */
    CampaignResult run(const ProgramFn &pre, const ProgramFn &post);

    /**
     * Like run(), but post-failure executions are distributed over
     * @p threads worker threads (each on its own pool replica).
     * Findings are identical to the serial run.
     */
    CampaignResult runParallel(const ProgramFn &pre,
                               const ProgramFn &post, unsigned threads);

    /**
     * Fig. 12b baselines: run only the pre-failure stage.
     * @param traced when true, trace but do not detect ("pure Pin");
     *               when false, disable tracing too ("original").
     * @return wall-clock seconds.
     */
    double runBaseline(const ProgramFn &pre, bool traced);

    /**
     * Attach observability sinks: phase/failure-point spans land on
     * @p o's timeline, stat counters are aggregated into its registry
     * at campaign end (when cfg.collectStats), and o->hooks receives
     * the campaign events (see CampaignHooks). Pass nullptr to
     * detach. The observer must outlive subsequent
     * run()/runParallel() calls.
     */
    void setObserver(CampaignObserver *o) { observer = o; }

  private:
    /**
     * Per-worker replay state: the shadow PM and the working image,
     * both advanced monotonically over the pre-failure trace.
     */
    struct PreCursor
    {
        /**
         * @p initial is the shared campaign-start snapshot; both
         * images fork it (O(pages) pointer copies — pages physically
         * split only as writes land). @p cellModel enables the cell
         * model and its durable image (see cells); @p delta is the
         * campaign's write-log index, which must outlive the cursor.
         */
        PreCursor(AddrRange range, const DetectorConfig &cfg,
                  const pm::CowImage &initial, bool cellModel,
                  const pm::ImageDeltaStore &delta);
        ~PreCursor();

        ShadowPM shadow;
        /** All updates applied (the paper's footnote-3 image). */
        pm::CowImage image;
        /**
         * Persisted-only image: the cell model's all-zero mask,
         * maintained only alongside the cell model (see cells).
         */
        pm::CowImage durable;
        std::uint32_t shadowCursor = 0;
        std::uint32_t imageCursor = 0;
        /** TX_ADD ranges of the open transaction (perf bugs). */
        std::vector<AddrRange> openTxAdds;

        /**
         * @name Frontier tracking (finding provenance)
         *
         * Line-granular persistency bookkeeping keyed by write seq:
         * inflight maps each dirty cache line to the seqs of writes
         * covering it that are not yet durably persisted;
         * inflightPending holds lines whose writes have been flushed
         * and persist at the next fence.
         * The sorted union of inflight's seq lists at a failure
         * point is that point's write frontier — the same identity
         * the crash-state oracle enumerates subsets of.
         * @{
         */
        std::map<Addr, std::vector<std::uint32_t>> inflight;
        std::set<Addr> inflightPending;
        /** @} */

        /**
         * @name Delta-restore state
         * @{
         */
        /** The campaign's write-log page index (shared read-only). */
        const pm::ImageDeltaStore &delta;
        /** Exec pool has been synced from scratch at least once. */
        bool execSynced = false;
        /** Failure point the exec pool was last restored to. */
        std::uint32_t lastRestoredSeq = 0;
        /** Delta restores since the last resync checkpoint. */
        std::size_t sinceCheckpoint = 0;
        /**
         * Pages of the durable image changed since the last restore
         * (the durable tier: fences persist cells whose writes may
         * predate the restore window, so the write-log index cannot
         * derive the durable delta; track it where it happens).
         */
        std::set<std::uint32_t> durablePages;
        /** @} */

        /**
         * Cell model of the crash-state tiers (--crash-states and the
         * durable tier), advanced with the working image: its cell
         * tails give the write frontiers, prefix chains and
         * candidate images, which agree with the crash-state
         * oracle's byte for byte, and its signature is the
         * equivalence key of a failure point. Each cell it decides
         * is copied into durable. Null for anchor campaigns and
         * under eADR.
         */
        std::unique_ptr<lint::FrontierState> cells;
    };

    /**
     * Advance the shadow PM over pre-trace entries up to @p to.
     * @param perf_sink when non-null, performance bugs are reported
     */
    void advanceShadow(PreCursor &cur, const trace::TraceBuffer &pre,
                       std::uint32_t to, BugSink *perf_sink);

    /** Advance the working image over pre-trace writes up to @p to. */
    void advanceImage(PreCursor &cur, const trace::TraceBuffer &pre,
                      std::uint32_t to);

    /** Per-worker observability context threaded through the chunk. */
    struct WorkerObs
    {
        /** Null when no observer is attached (spans disabled). */
        obs::Timeline *timeline = nullptr;
        /** Timeline track of this worker (0 = main). */
        int track = 0;
        /** Post-failure-stage seconds, one entry per failure point. */
        std::vector<double> *postLatency = nullptr;
        /** Per-op post-trace entry counts, accumulated per point. */
        std::array<std::uint64_t, trace::opCount> *postOps = nullptr;
        /** Live telemetry registry; null unless live output is on. */
        obs::LiveMetrics *live = nullptr;
    };

    /**
     * Handle failure point @p fp end to end on @p exec_pool:
     * reconstruct the tier's image (the anchor, or the durable image
     * under the durable tier), run the post-failure stage on it and
     * on any partial candidates, replay each post trace against the
     * shadow.
     */
    void handleFailurePoint(PreCursor &cur, pm::PmPool &exec_pool,
                            const trace::TraceBuffer &pre,
                            const ProgramFn &post, std::uint32_t fp,
                            BugSink &sink, CampaignStats &stats,
                            const WorkerObs &wobs);

    /**
     * Run the post-failure stage once on the crash image already in
     * @p exec_pool and classify its trace: the one post-failure engine
     * behind the anchor, the durable tier and every partial mask.
     * Recovery aborts and wild PM accesses become RecoveryFailure
     * findings; every finding is annotated with @p frontier and
     * @p mask before merging into @p out.
     * @return the classification (replay) seconds
     */
    double runCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                        const trace::TraceBuffer &pre,
                        const ProgramFn &post, std::uint32_t fp,
                        const std::vector<std::uint32_t> &frontier,
                        const trace::SubsetMask &mask,
                        bool suppressSemantic, BugSink &out,
                        CampaignStats &stats, const WorkerObs &wobs);

    /**
     * Replay one post-failure trace against the shadow PM.
     * @param suppressSemantic drop commit-window (condition (3))
     *        verdicts — set for the durable image and for partial
     *        candidates that dropped a commit-variable write, where
     *        recovery legitimately observes an older committed epoch.
     */
    void replayPost(PreCursor &cur, const trace::TraceBuffer &pre,
                    const trace::TraceBuffer &post, std::uint32_t fp,
                    BugSink &sink, bool suppressSemantic);

    /**
     * Partial crash-state exploration at failure point @p fp
     * (--crash-states=sample:<n>|exhaustive): enumerate the legal
     * persisted subsets of @p frontier from the cursor's cell model,
     * equivalence-prune against the campaign-global seen set,
     * materialize each surviving candidate (durable image + masked
     * frontier events) on @p exec_pool, run recovery and classify.
     * Candidate findings merge into @p local annotated with their
     * own persistedMask. Runs after the anchor execution; the exec
     * pool is left consistent with the delta bookkeeping.
     */
    void exploreCrashStates(PreCursor &cur, pm::PmPool &exec_pool,
                            const trace::TraceBuffer &pre,
                            const ProgramFn &post, std::uint32_t fp,
                            const std::vector<std::uint32_t> &frontier,
                            BugSink &local, CampaignStats &stats,
                            const WorkerObs &wobs);

    /**
     * Aggregate campaign counters into the observer's registry:
     * exportCampaignStats(), shadow-FSM edge counts (from the
     * deterministic full-trace replay, so serial and parallel
     * campaigns register identical values), per-op trace volumes,
     * and the post-execution latency histogram.
     */
    void fillObserverStats(
        const CampaignResult &res,
        const std::array<std::uint64_t, trace::opCount> &pre_ops,
        const std::array<std::uint64_t, trace::opCount> &post_ops,
        const ShadowFsmCounters &fsm,
        const std::vector<double> &post_latency);

    pm::PmPool &pool;
    DetectorConfig cfg;
    CampaignObserver *observer = nullptr;
    /**
     * Pages where any working image can differ from a fresh zeroed
     * pool: the full write-log page set united with the initial
     * snapshot's nonzero pages. Chunk starts and checkpoint resyncs
     * restore this set (plus exec-pool dirt) instead of copying the
     * whole pool. Set by runParallel() while a campaign is in
     * flight, cleared before it returns.
     */
    const std::set<std::uint32_t> *chunkSyncPages = nullptr;

    /**
     * Campaign-global crash-state exploration context (parsed mode
     * knobs + the equivalence-class pruning set shared by every
     * worker). Set by runParallel() while a --crash-states campaign
     * is in flight, cleared before it returns; null otherwise.
     */
    struct CrashStateCtx;
    CrashStateCtx *csCtx = nullptr;
};

} // namespace xfd::core

#endif // XFD_CORE_DRIVER_HH
