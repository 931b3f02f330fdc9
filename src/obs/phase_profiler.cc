#include "obs/phase_profiler.hh"

#include <algorithm>

namespace xfd::obs
{

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::TraceCapture: return "trace_capture";
      case Phase::Plan: return "plan";
      case Phase::IndexWriteLog: return "index_write_log";
      case Phase::LintPrune: return "lint_prune";
      case Phase::Restore: return "restore";
      case Phase::RecoveryExec: return "recovery_exec";
      case Phase::Classify: return "classify";
      case Phase::Oracle: return "oracle";
    }
    return "?";
}

const char *
phaseDesc(Phase p)
{
    switch (p) {
      case Phase::TraceCapture:
        return "pre-failure stage under tracing";
      case Phase::Plan:
        return "failure-point planning";
      case Phase::IndexWriteLog:
        return "write-log page indexing + restore-set scan";
      case Phase::LintPrune:
        return "static frontier-signature pruning";
      case Phase::Restore:
        return "shadow/image advance + exec-pool restore";
      case Phase::RecoveryExec:
        return "post-failure stage execution";
      case Phase::Classify:
        return "post-trace replay + perf scan";
      case Phase::Oracle:
        return "crash-state oracle enumeration";
    }
    return "";
}

void
PhaseTotals::merge(const PhaseTotals &o)
{
    for (std::size_t i = 0; i < phaseCount; i++) {
        seconds[i] += o.seconds[i];
        count[i] += o.count[i];
    }
}

double
PhaseTotals::total() const
{
    double sum = 0;
    for (double s : seconds)
        sum += s;
    return sum;
}

double
PhaseTotals::backendAttributed() const
{
    return seconds[static_cast<std::size_t>(Phase::Restore)] +
           seconds[static_cast<std::size_t>(Phase::Classify)];
}

double
PhaseTotals::attributionOf(double backend_seconds) const
{
    double attributed = backendAttributed();
    double denom = std::max(backend_seconds, attributed);
    return denom > 0 ? attributed / denom : 1.0;
}

void
exportPhaseStats(StatsRegistry &reg, const PhaseTotals &t,
                 double backend_seconds)
{
    for (std::size_t i = 0; i < phaseCount; i++) {
        auto p = static_cast<Phase>(i);
        reg.scalar(std::string("campaign.phase.") + phaseName(p) +
                       "_seconds",
                   phaseDesc(p))
            .set(t.seconds[i]);
        reg.scalar(std::string("campaign.phase.") + phaseName(p) +
                       "_count",
                   "scoped-timer intervals attributed to this phase")
            .set(static_cast<double>(t.count[i]));
    }
    reg.scalar("campaign.phase.total_seconds",
               "seconds attributed to any phase")
        .set(t.total());
    reg.scalar("campaign.phase.backend_attribution",
               "fraction of backend seconds attributed to "
               "restore + classify")
        .set(t.attributionOf(backend_seconds));
}

void
writePhaseJson(const PhaseTotals &t, JsonWriter &w)
{
    w.beginObject();
    for (std::size_t i = 0; i < phaseCount; i++) {
        if (!t.count[i])
            continue;
        w.key(phaseName(static_cast<Phase>(i))).beginObject();
        w.field("seconds", t.seconds[i]);
        w.field("count", t.count[i]);
        w.endObject();
    }
    w.endObject();
}

} // namespace xfd::obs
