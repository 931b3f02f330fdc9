#include "core/campaign_metrics.hh"

#include "obs/phase_profiler.hh"

namespace xfd::core
{

// Coverage tripwire, as for DetectorConfig. The 25 eight-byte slots:
// 15 counts, 3 seconds, threads (padded) and the 6 restore counts.
static_assert(sizeof(CampaignStats) ==
                  25 * 8 + sizeof(CampaignStats::crashPruned) +
                      sizeof(obs::PhaseTotals),
              "CampaignStats changed: add a campaignMetrics() row for "
              "the new field, then update this size tripwire");

namespace
{

using S = CampaignStats;
using R = pm::DeltaRestoreStats;
using enum Merge;

double
ratio(double num, double den)
{
    return den ? num / den : 0.0;
}

/** What copying the whole pool per restore would have moved. */
double
fullCopyBaseline(const S &s)
{
    return static_cast<double>(s.restore.fullCopies +
                               s.restore.deltaRestores) *
           static_cast<double>(s.poolBytes);
}

} // namespace

const std::vector<Metric<CampaignStats>> &
campaignMetrics()
{
    static const std::vector<Metric<S>> table = {
        fieldMetric<&S::failurePoints>("failure_points", "", Once,
            "failure points planned (after elision)"),
        fieldMetric<&S::orderingCandidates>("ordering_candidates", "", Once,
            "ordering points considered for failure injection"),
        fieldMetric<&S::elidedPoints>("elided_points", "", Once,
            "failure points skipped by trace elision"),
        fieldMetric<&S::lintPrunedPoints>("lint_pruned_points", "", Once,
            "failure points folded into batch representatives"),
        fieldMetric<&S::postExecutions>("post_executions", "", Sum,
            "post-failure stage executions"),
        fieldMetric<&S::preTraceEntries>("pre_trace_entries", "", Once,
            "pre-failure trace entries"),
        fieldMetric<&S::postTraceEntries>("post_trace_entries", "", Sum,
            "post-failure trace entries (all executions)"),
        fieldMetric<&S::checksPerformed>("checks_performed", "", Sum,
            "post-failure read checks performed"),
        fieldMetric<&S::checksSkipped>("checks_skipped", "", Sum,
            "post-failure read checks skipped (first-read opt)"),
        fieldMetric<&S::threads>("threads", "", Once, "worker threads used"),
        fieldMetric<&S::preSeconds>("pre_seconds", "", Once,
            "pre-failure stage wall seconds"),
        fieldMetric<&S::postSeconds>("post_seconds", "", SerialSum,
            "post-failure stage wall seconds"),
        fieldMetric<&S::backendSeconds>("backend_seconds", "", SerialSum,
            "image reconstruction + replay wall seconds"),
        {"total_seconds", "", "pre + post + backend wall seconds", false,
            [](const S &s) { return s.totalSeconds(); }},
        fieldMetric<&S::batchGroups>("batch_groups", "", Once,
            "signature groups scheduled (--backend=batched)"),
        fieldMetric<&S::sameValueElided>("same_value_elided", "", Once,
            "same-value stores elided at emit time (--elide-same-value)"),
        {"elision_ratio", "", "fraction of candidate points elided", false,
            [](const S &s) {
                return ratio(s.elidedPoints, s.orderingCandidates); }},
        {"lint_prune_ratio", "",
            "fraction of planned points folded by --backend=batched", false,
            [](const S &s) {
                double planned = s.failurePoints + s.lintPrunedPoints;
                return ratio(s.lintPrunedPoints, planned); }},

        fieldMetric<&S::crashStatesEnumerated>("enumerated", "crash_states",
            Sum, "partial crash-state candidates enumerated (--crash-states)"),
        fieldMetric<&S::crashStatesExplored>("explored", "crash_states", Sum,
            "partial crash-state candidates executed"),
        fieldMetric<&S::crashStatesPruned>("pruned", "crash_states", Sum,
            "candidates skipped by equivalence-class pruning"),
        {"prune_ratio", "crash_states",
            "fraction of enumerated candidates pruned as equivalent", false,
            [](const S &s) {
                return ratio(s.crashStatesPruned, s.crashStatesEnumerated); }},

        fieldMetric<&S::poolBytes>("pool_bytes", "restore", Once,
            "exec-pool capacity in bytes"),
        fieldMetric<&S::restore, &R::fullCopies>("full_copies", "restore", Sum,
            "full-image restores (chunk starts, checkpoint cadence)"),
        fieldMetric<&S::restore, &R::deltaRestores>("delta_restores", "restore",
            Sum, "page-granular partial restores"),
        fieldMetric<&S::restore, &R::pagesRestored>("pages_restored", "restore",
            Sum, "pages copied by partial restores"),
        fieldMetric<&S::restore, &R::bytesRestored>("bytes_restored", "restore",
            Sum, "bytes copied by partial restores"),
        fieldMetric<&S::restore, &R::bytesFullCopy>("bytes_full_copy",
            "restore", Sum, "bytes copied by full-image restores"),
        {"bytes_copied", "restore", "bytes copied by all restores", true,
            [](const S &s) {
                return static_cast<double>(s.restore.bytesCopied()); }},
        fieldMetric<&S::restore, &R::syncRestores>("sync_restores", "restore",
            Sum, "from-scratch resyncs done page-granular instead of O(pool)"),
        {"bytes_elided", "restore",
            "restore bytes saved vs full-copy baseline", true,
            [](const S &s) {
                return fullCopyBaseline(s) - s.restore.bytesCopied(); }},
        {"restore_ratio", "restore",
            "restore bytes moved / full-copy baseline", false,
            [](const S &s) {
                return ratio(s.restore.bytesCopied(), fullCopyBaseline(s)); }},
    };
    return table;
}

void
mergeWorkerStats(CampaignStats &into, CampaignStats &from, bool serial)
{
    for (const auto &m : campaignMetrics()) {
        if (m.merge == Sum || (m.merge == SerialSum && serial))
            m.add(into, from);
    }
    into.phases.merge(from.phases);
    for (auto &p : from.crashPruned)
        into.crashPruned.push_back(std::move(p));
}

void
exportCampaignStats(const CampaignResult &res, obs::StatsRegistry &reg)
{
    const CampaignStats &s = res.statistics();
    exportMetrics(campaignMetrics(), s, reg);
    reg.scalar("campaign.crash_states.partial_findings",
               "findings first exposed on a partial crash image")
        .set(static_cast<double>(res.partialImageFindings()));
    obs::exportPhaseStats(reg, s.phases, s.backendSeconds);
}

} // namespace xfd::core
