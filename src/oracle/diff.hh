/**
 * @file
 * Differential conformance harness: detector vs. crash-state oracle.
 *
 * One differential campaign runs the FSM-based detector and the
 * enumeration oracle over the same program and compares them at every
 * planned failure point:
 *
 *  - The detector's per-point findings are captured through the
 *    CampaignObserver::onFailurePoint hook (pre-dedup, so a bug
 *    recurring at several points is seen at each of them).
 *  - The oracle's all-updates anchor candidate runs on a byte-
 *    identical crash image, so its finding classes must match the
 *    detector's exactly; any mismatch is a disagreement.
 *  - Classes that only partial candidates surface are *extras*: real
 *    crash states the detector's single image never executes. They
 *    are attributed (a partial image can legitimately race, break
 *    recovery, or expose a different committed version) rather than
 *    counted against conformance; an extra that cannot be attributed
 *    marks the report unclean.
 *  - Under --crash-states the detector explores partial candidates
 *    itself. The harness then mirrors the detector's enumeration
 *    knobs and per-point sampler stream (the equivalence-class hash
 *    of DESIGN.md §14), so the oracle materializes the same masks,
 *    and checks two more properties: every detector finding first
 *    exposed on a partial image must be reproduced by the oracle's
 *    candidate at the same mask, and every candidate the detector
 *    pruned as equivalent must get the same oracle verdict as the
 *    representative that ran in its place (agreement 1.0 means the
 *    pruning rule lost nothing).
 *
 * Disagreements are dumped as replayable artifacts: the pre-failure
 * trace (trace/serialize format) once per campaign, plus one JSON
 * sidecar per disagreeing failure point carrying the point's seq, the
 * anchor subset mask in SubsetMask::toHex() spelling, and both class
 * sets — everything needed to reconstruct the exact crash image and
 * re-run the comparison.
 */

#ifndef XFD_ORACLE_DIFF_HH
#define XFD_ORACLE_DIFF_HH

#include <set>
#include <string>
#include <vector>

#include "core/campaign_json.hh"
#include "core/campaign_metrics.hh"
#include "core/driver.hh"
#include "core/observer.hh"
#include "oracle/oracle.hh"

namespace xfd::oracle
{

/** Knobs for one differential campaign. */
struct DiffConfig
{
    /**
     * Campaign configuration for the detector side; the oracle
     * mirrors its semantics knobs. The durable crash-states tier is
     * reset to the anchor (the oracle does not check that tier).
     */
    core::DetectorConfig detector;

    /** Worker threads for the detector campaign. */
    unsigned threads = 1;

    /** Oracle tier: exhaustive below the frontier limit, or sampled. */
    bool exhaustive = true;

    /** Candidates per failure point when sampling. */
    std::size_t sampleCount = 64;

    /** Seed for the oracle's subset sampler. */
    std::uint64_t seed = 42;

    /** Directory for disagreement artifacts; empty = don't write. */
    std::string artifactDir;

    /**
     * Optional external observer: campaign stats (with the oracle
     * phase and the diffMetrics() rows), spans and progress land
     * there, and any hooks already installed keep firing. The harness
     * restores the hook slots before returning.
     */
    core::CampaignObserver *observer = nullptr;
};

/** Detector/oracle comparison at one failure point. */
struct FpAgreement
{
    std::uint32_t fp = 0;

    /** Classes the detector reported at this point (pre-dedup). */
    std::set<core::BugType> detectorClasses;

    /** Classes of the oracle's all-updates anchor candidate. */
    std::set<core::BugType> oracleClasses;

    /** In-flight writes at the point. */
    std::size_t frontier = 0;

    /** Candidate crash images the oracle ran. */
    std::size_t candidates = 0;

    /** Frontier exceeded the limit; candidates were sampled. */
    bool sampled = false;

    /** detectorClasses == oracleClasses. */
    bool agree = false;

    /**
     * The detector folded this point into a batch representative
     * (--backend=batched); detectorClasses
     * holds the classes of its kept representative, which the prune
     * rule guarantees are the classes this point would have produced.
     * The oracle runs the pruned point for real, so a disagreement
     * here falsifies the rule, not just the detector.
     */
    bool prunedRecheck = false;

    /** Classes only partial candidates produced (attributed). */
    std::set<core::BugType> extras;
};

/** Outcome of a differential campaign. */
struct DiffReport
{
    std::vector<FpAgreement> perFp;

    std::size_t failurePoints = 0;
    std::size_t agreements = 0;
    std::size_t disagreements = 0;

    /** Legal crash states identified across all points. */
    std::size_t statesEnumerated = 0;

    /** Candidates run at sampled (over-limit) points. */
    std::size_t subsetsSampled = 0;

    /** Candidate recovery executions in total. */
    std::size_t candidatesRun = 0;

    /** Points the detector pruned and the oracle re-checked. */
    std::size_t prunedRechecked = 0;

    /** Partial-candidate extra classes, by attribution. */
    std::size_t extrasExplained = 0;
    std::size_t extrasUnexplained = 0;

    /**
     * --crash-states conformance: detector partial-image finding
     * groups (one per distinct persisted mask at a point) checked
     * against the oracle's candidate at the same mask.
     */
    std::size_t partialChecked = 0;
    std::size_t partialDisagreements = 0;

    /**
     * Candidates the detector's equivalence pruning skipped,
     * re-checked by comparing the oracle's verdict at the skipped
     * (point, mask) against the representative that ran instead.
     */
    std::size_t crashPrunedRechecked = 0;
    std::size_t crashPrunedDisagreements = 0;

    /** Artifact files written (disagreements only). */
    std::vector<std::string> artifacts;

    /**
     * Wall seconds the oracle side spent (enumeration + candidate
     * recovery executions); also noted as Phase::Oracle on the
     * detector result's phase totals.
     */
    double oracleSeconds = 0;

    /** The detector campaign's own result (final, deduplicated). */
    core::CampaignResult detector;

    /** Agreeing points / planned points (1.0 when none planned). */
    double agreementRate() const;

    /** No disagreements and no unattributable extras. */
    bool
    clean() const
    {
        return disagreements == 0 && extrasUnexplained == 0 &&
               partialDisagreements == 0 &&
               crashPrunedDisagreements == 0;
    }

    /** Multi-line human-readable report. */
    std::string summary() const;
};

/**
 * Run detector and oracle over one program and compare per failure
 * point. The pool must be in its pre-campaign state; like a plain
 * campaign, it holds the final pre-failure contents afterwards.
 */
DiffReport runDifferentialCampaign(pm::PmPool &pool,
                                   const core::ProgramFn &pre,
                                   const core::ProgramFn &post,
                                   const DiffConfig &cfg);

/** The DiffReport rows, in stats-JSON order. */
const std::vector<core::Metric<DiffReport>> &diffMetrics();

/**
 * Stats-JSON section ("oracle") for @p r. The report must outlive the
 * writeStatsJson() call that consumes the section.
 */
core::JsonSection oracleJsonSection(const DiffReport &r);

} // namespace xfd::oracle

#endif // XFD_ORACLE_DIFF_HH
