/**
 * @file
 * Run one draw in-process and measure it from outside the program.
 *
 * Untraced, a draw is one timed call into the public API:
 * xfd::Campaign::run(), bugsuite::runBugCase() or
 * oracle::runDifferentialCampaign(). Traced, the same campaign runs
 * through xfd::Campaign on a benchmark-owned pool with CampaignHooks
 * v2 attached and timed pre/post lambdas, and the layer calls
 * Campaign::run() makes internally (pool scan, write-log index,
 * planning, batch planning) are repeated on the captured trace and
 * timed on their own. Every timing is taken here; nothing inside
 * the program is instrumented.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "draw.hh"

namespace perfbench
{

/** Span names; a span's layer is the part before the first '.'. */
enum class SpanName : std::uint8_t
{
    Campaign,     ///< the whole draw, bench bookkeeping included
    PoolCreate,   ///< pm::PmPool constructor
    PoolScan,     ///< CowImage::collectNonZeroPages, initial snapshot
    CoreRun,      ///< xfd::Campaign::run()
    OracleRun,    ///< oracle::runDifferentialCampaign()
    Capture,      ///< the pre lambda (traced pre-failure stage)
    Recovery,     ///< one post lambda call (recovery + resumption)
    Hook,         ///< the benchmark's own onPreTraceReady work
    DeltaIndex,   ///< trace::buildDeltaStore on the captured trace
    Plan,         ///< core::planFailurePoints on the captured trace
    BatchPlan,    ///< core::planBatches on the planned points
    Count
};

/** Dotted span name, e.g. "pm.pool_scan". */
const char *spanName(SpanName n);

/** One closed span; times are ns on the steady clock. */
struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the enclosing span in the same draw, -1 for a root. */
    std::int32_t parent = -1;
    SpanName name = SpanName::Campaign;
};

/** Fixed-size part of a draw's outcome. */
struct OutcomeHead
{
    /** The campaign threw (typed error out of the public API). */
    bool threw = false;
    /** Wall seconds around the public entry point. */
    double wallSeconds = 0;
    /** Sum of the campaign's own phases().seconds. */
    double phaseSeconds = 0;
    /** failurePoints + lintPrunedPoints: planned, before batching. */
    std::uint64_t plannedPoints = 0;
    /** Failure points whose recovery ran (batch representatives). */
    std::uint64_t executedPoints = 0;
    std::uint64_t crashEnumerated = 0;
    std::uint64_t crashPruned = 0;
    std::uint64_t restoreBytes = 0;
    std::uint64_t preEntries = 0;
    std::uint64_t postEntries = 0;
    std::uint64_t postExecutions = 0;
    std::uint64_t findings = 0;
    /** FNV-1a of fingerprint(). */
    std::uint64_t fingerprintHash = 0;
    /** Bug case whose expected finding is missing. */
    bool expectedMissing = false;
    /** @name Differential campaigns @{ */
    std::uint64_t oracleStates = 0;
    std::uint64_t oraclePoints = 0;
    std::uint64_t oracleAgreements = 0;
    /** !rep.clean() or an agreement rate below 1. */
    bool oracleBroken = false;
    /** @} */
    /** Worker peak resident set after the draw. */
    double peakRssMb = 0;
    /** @name Traced draws only @{ */
    double poolCreateSeconds = 0;
    double poolScanSeconds = 0;
    double deltaIndexSeconds = 0;
    double planSeconds = 0;
    double batchPlanSeconds = 0;
    double captureSeconds = 0;
    /** Time spent in the benchmark's hooks inside run(). */
    double hookSeconds = 0;
    /** planBatches groups and its input point count. */
    std::uint64_t batchGroups = 0;
    std::uint64_t batchInput = 0;
    /** @} */
};

/** Everything measured about one draw. */
struct Outcome
{
    OutcomeHead head;
    /**
     * First fingerprint line (listed for clean draws that report a
     * finding), or the exception text when the campaign threw.
     */
    std::string firstFinding;
    /** @name Traced draws only @{ */
    /** Gaps between successive onFailurePoint calls, µs. */
    std::vector<float> pointUs;
    /** Each gap minus the recovery time inside it, µs. */
    std::vector<float> backendUs;
    /** Each post lambda call, µs. */
    std::vector<float> recoveryUs;
    std::vector<Span> spans;
    /** @} */
};

/** Run @p d as workload @p w describes, traced or not. */
Outcome runDraw(const WorkloadSpec &w, const Draw &d, bool traced);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
