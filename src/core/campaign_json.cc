#include "core/campaign_json.hh"

#include "common/logging.hh"
#include "core/config_flags.hh"
#include "obs/json.hh"
#include "obs/phase_profiler.hh"

namespace xfd::core
{

namespace
{

void
writeSrcLoc(obs::JsonWriter &w, const trace::SrcLoc &loc)
{
    w.beginObject();
    w.field("file", loc.file);
    w.field("line", static_cast<std::uint64_t>(loc.line));
    w.field("func", loc.func);
    w.endObject();
}

void
writeBug(obs::JsonWriter &w, const BugReport &b, std::size_t idx)
{
    w.beginObject();
    w.field("id", strprintf("F%zu", idx + 1));
    w.field("type", bugTypeId(b.type));
    w.field("addr", strprintf("%#llx",
                              static_cast<unsigned long long>(b.addr)));
    w.field("size", static_cast<std::uint64_t>(b.size));
    w.key("reader");
    writeSrcLoc(w, b.reader);
    w.key("writer");
    writeSrcLoc(w, b.writer);
    w.field("failure_point", static_cast<std::uint64_t>(b.failurePoint));
    w.field("occurrences", static_cast<std::uint64_t>(b.occurrences));
    w.field("note", b.note);
    if (!b.frontierSeqs.empty()) {
        w.key("provenance").beginObject();
        w.field("frontier_size",
                static_cast<std::uint64_t>(b.frontierSeqs.size()));
        w.key("frontier_seqs").beginArray();
        for (std::uint32_t seq : b.frontierSeqs)
            w.value(static_cast<std::uint64_t>(seq));
        w.endArray();
        w.field("persisted_mask", b.persistedMask.toHex());
        w.endObject();
    }
    w.endObject();
}

} // namespace

void
writeStatsJson(const CampaignResult &res,
               const obs::StatsRegistry *stats, std::ostream &os)
{
    writeStatsJson(res, nullptr, stats, os);
}

void
writeStatsJson(const CampaignResult &res, const DetectorConfig *cfg,
               const obs::StatsRegistry *stats, std::ostream &os,
               const std::vector<JsonSection> &extra)
{
    const CampaignStats &s = res.statistics();
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "xfd-stats-v1");

    if (cfg) {
        w.key("config");
        writeConfigJson(*cfg, w);
    }

    // The same numbers summary() prints, machine-readable.
    w.key("campaign").beginObject();
    w.field("failure_points", static_cast<std::uint64_t>(s.failurePoints));
    w.field("ordering_candidates",
            static_cast<std::uint64_t>(s.orderingCandidates));
    w.field("elided_points", static_cast<std::uint64_t>(s.elidedPoints));
    w.field("lint_pruned_points",
            static_cast<std::uint64_t>(s.lintPrunedPoints));
    w.field("post_executions",
            static_cast<std::uint64_t>(s.postExecutions));
    w.field("pre_trace_entries",
            static_cast<std::uint64_t>(s.preTraceEntries));
    w.field("post_trace_entries",
            static_cast<std::uint64_t>(s.postTraceEntries));
    w.field("checks_performed",
            static_cast<std::uint64_t>(s.checksPerformed));
    w.field("checks_skipped",
            static_cast<std::uint64_t>(s.checksSkipped));
    w.field("threads", s.threads);
    w.field("pre_seconds", s.preSeconds);
    w.field("post_seconds", s.postSeconds);
    w.field("backend_seconds", s.backendSeconds);
    w.field("total_seconds", s.totalSeconds());
    if (s.crashStatesEnumerated || s.crashStatesExplored ||
        s.crashStatesPruned) {
        w.key("crash_states").beginObject();
        w.field("enumerated",
                static_cast<std::uint64_t>(s.crashStatesEnumerated));
        w.field("explored",
                static_cast<std::uint64_t>(s.crashStatesExplored));
        w.field("pruned",
                static_cast<std::uint64_t>(s.crashStatesPruned));
        w.field("partial_findings",
                static_cast<std::uint64_t>(res.partialImageFindings()));
        w.endObject();
    }
    w.key("phases");
    obs::writePhaseJson(s.phases, w);
    w.field("backend_attribution",
            s.phases.attributionOf(s.backendSeconds));
    w.endObject();

    // Exec-pool restore volume (delta-image engine accounting).
    w.key("restore").beginObject();
    w.field("pool_bytes", static_cast<std::uint64_t>(s.poolBytes));
    w.field("full_copies", s.restore.fullCopies);
    w.field("delta_restores", s.restore.deltaRestores);
    w.field("pages_restored", s.restore.pagesRestored);
    w.field("bytes_restored", s.restore.bytesRestored);
    w.field("bytes_full_copy", s.restore.bytesFullCopy);
    w.field("bytes_copied", s.restore.bytesCopied());
    w.endObject();

    w.key("bugs").beginObject();
    w.field("total", static_cast<std::uint64_t>(res.findings().size()));
    w.key("by_type").beginObject();
    for (BugType t : {BugType::CrossFailureRace,
                      BugType::CrossFailureSemantic, BugType::Performance,
                      BugType::RecoveryFailure}) {
        w.field(bugTypeId(t), static_cast<std::uint64_t>(res.count(t)));
    }
    w.endObject();
    w.endObject();

    if (stats) {
        w.key("stats");
        stats->writeJson(w);
    }

    for (const auto &section : extra) {
        w.key(section.key);
        section.body(w);
    }

    w.endObject();
    os << '\n';
}

void
writeReportJson(const CampaignResult &res, std::ostream &os)
{
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "xfd-report-v1");
    w.field("findings_total",
            static_cast<std::uint64_t>(res.findings().size()));
    w.field("checks_performed",
            static_cast<std::uint64_t>(res.statistics().checksPerformed));
    w.field("checks_skipped",
            static_cast<std::uint64_t>(res.statistics().checksSkipped));
    w.key("findings").beginArray();
    for (std::size_t i = 0; i < res.findings().size(); i++)
        writeBug(w, res.findings()[i], i);
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace xfd::core
