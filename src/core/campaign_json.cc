#include "core/campaign_json.hh"

#include "common/logging.hh"
#include "core/campaign_metrics.hh"
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

    w.key("campaign").beginObject();
    writeMetricFields(campaignMetrics(), "", s, w);
    w.key("crash_states").beginObject();
    writeMetricFields(campaignMetrics(), "crash_states", s, w);
    w.field("partial_findings",
            static_cast<std::uint64_t>(res.partialImageFindings()));
    w.endObject();
    w.key("phases");
    obs::writePhaseJson(s.phases, w);
    w.field("backend_attribution",
            s.phases.attributionOf(s.backendSeconds));
    w.endObject();

    w.key("restore").beginObject();
    writeMetricFields(campaignMetrics(), "restore", s, w);
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
