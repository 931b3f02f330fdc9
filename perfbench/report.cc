#include "report.hh"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench
{

namespace
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2;
}

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0;
    double percentile = 0;
    std::size_t samples = 0;
};

Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    // With ten or fewer samples no percentile has ten beyond it; fall
    // back to the maximum.
    std::size_t i = v.size() > 10 ? v.size() - 11 : v.size() - 1;
    t.value = v[i];
    t.percentile = 100.0 * static_cast<double>(i + 1) /
                   static_cast<double>(v.size());
    return t;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename F>
std::vector<double>
collect(const std::vector<const Attempt *> &set, F f)
{
    std::vector<double> out;
    for (const Attempt *a : set)
        if (!a->failed)
            out.push_back(f(a->outcome.head));
    return out;
}

template <typename F>
double
sum(const std::vector<const Attempt *> &set, F f)
{
    double s = 0;
    for (const Attempt *a : set)
        if (!a->failed)
            s += static_cast<double>(f(a->outcome.head));
    return s;
}

std::vector<double>
pooled(const std::vector<const Attempt *> &set,
       std::vector<float> Outcome::*field)
{
    std::vector<double> out;
    for (const Attempt *a : set)
        if (!a->failed)
            out.insert(out.end(), (a->outcome.*field).begin(),
                       (a->outcome.*field).end());
    return out;
}

Tail
wallTail(const std::vector<const Attempt *> &set)
{
    return tail(collect(set, [](const OutcomeHead &h) {
        return h.wallSeconds * 1e3;
    }));
}

std::uint64_t
digestOf(const std::vector<const Attempt *> &set)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Attempt *a : set) {
        h = mix(h, a->draw.id);
        h = mix(h, a->failed ? ~std::uint64_t{0}
                             : a->outcome.head.fingerprintHash);
    }
    return h;
}

std::size_t
count(const std::vector<const Attempt *> &set, bool (*pred)(const Attempt &))
{
    return static_cast<std::size_t>(std::count_if(
        set.begin(), set.end(), [&](const Attempt *a) { return pred(*a); }));
}

bool
isCleanFinding(const Attempt &a)
{
    return !a.failed && a.draw.bugCase < 0 && a.outcome.head.findings > 0;
}

bool
isFailed(const Attempt &a)
{
    return a.failed;
}

double
oracleStatesPerS(const std::vector<const Attempt *> &set)
{
    return ratio(sum(set, [](const OutcomeHead &h) { return h.oracleStates; }),
                 sum(set, [](const OutcomeHead &h) { return h.wallSeconds; }));
}

std::string
layerOf(const char *span)
{
    std::string s = span;
    return s.substr(0, s.find('.'));
}

} // namespace

std::vector<const Attempt *>
Report::select(bool tracedSet) const
{
    std::vector<const Attempt *> out;
    for (const auto &a : attempts)
        if (a.traced == tracedSet)
            out.push_back(&a);
    return out;
}

std::vector<Metric>
Report::endToEnd(const std::vector<const Attempt *> &set) const
{
    double wall = sum(set, [](const OutcomeHead &h) { return h.wallSeconds; });
    double peak = 0;
    for (const Attempt *a : set)
        peak = std::max(peak, a->outcome.head.peakRssMb);
    return {
        {"campaigns_per_s", "1/s",
         ratio(static_cast<double>(set.size() - count(set, isFailed)),
               wall)},
        {"campaign_p50_ms", "ms",
         median(collect(set, [](const OutcomeHead &h) {
             return h.wallSeconds * 1e3;
         }))},
        {"campaign_tail_ms", "ms", wallTail(set).value},
        {"failure_points_per_s", "1/s",
         ratio(sum(set,
                   [](const OutcomeHead &h) { return h.plannedPoints; }),
               wall)},
        {"crash_states_per_s", "1/s",
         ratio(sum(set,
                   [](const OutcomeHead &h) {
                       return h.executedPoints + h.crashEnumerated;
                   }),
               wall)},
        {"setup_s", "s", median(setupSeconds)},
        {"peak_rss_mb", "MB", peak},
    };
}

std::vector<Metric>
Report::perLayer(const std::vector<const Attempt *> &set) const
{
    auto ms = [&](double OutcomeHead::*f) {
        return median(
            collect(set, [f](const OutcomeHead &h) { return h.*f * 1e3; }));
    };
    auto total = [&](std::uint64_t OutcomeHead::*f) {
        return sum(set, [f](const OutcomeHead &h) { return h.*f; });
    };
    const double campaigns =
        static_cast<double>(set.size() - count(set, isFailed));

    std::vector<const Attempt *> bugs;
    for (const Attempt *a : set)
        if (a->draw.bugCase >= 0)
            bugs.push_back(a);
    // Over the campaigns that use the frontier signature only.
    std::vector<double> batchPlanMs;
    for (const Attempt *a : set)
        if (!a->failed && a->outcome.head.batchInput)
            batchPlanMs.push_back(a->outcome.head.batchPlanSeconds * 1e3);
    // Only a differential workload exercises the oracle layer.
    const std::vector<const Attempt *> diffs =
        spec.differential ? set : std::vector<const Attempt *>{};
    double bugsDetected = 0;
    for (const Attempt *a : bugs)
        bugsDetected += !a->failed && !a->outcome.head.expectedMissing;

    return {
        {"pm.pool_create_ms", "ms", ms(&OutcomeHead::poolCreateSeconds)},
        {"pm.pool_scan_ms", "ms", ms(&OutcomeHead::poolScanSeconds)},
        {"pm.delta_index_ms", "ms", ms(&OutcomeHead::deltaIndexSeconds)},
        {"pm.restore_bytes_per_point", "bytes",
         ratio(total(&OutcomeHead::restoreBytes),
               total(&OutcomeHead::executedPoints))},
        {"core.plan_ms", "ms", ms(&OutcomeHead::planSeconds)},
        {"core.point_us_p50", "us", median(pooled(set, &Outcome::pointUs))},
        {"core.point_us_tail", "us",
         tail(pooled(set, &Outcome::pointUs)).value},
        {"core.backend_us_per_point", "us",
         median(pooled(set, &Outcome::backendUs))},
        {"core.executed_ratio", "ratio",
         ratio(total(&OutcomeHead::executedPoints),
               total(&OutcomeHead::plannedPoints))},
        {"core.unattributed_ms", "ms",
         median(collect(set,
                        [](const OutcomeHead &h) {
                            return (h.wallSeconds - h.phaseSeconds -
                                    h.hookSeconds) *
                                   1e3;
                        }))},
        {"lint.batch_plan_ms", "ms", median(batchPlanMs)},
        {"lint.fold_ratio", "ratio",
         ratio(total(&OutcomeHead::batchGroups),
               total(&OutcomeHead::batchInput))},
        {"workloads.recovery_us_p50", "us",
         median(pooled(set, &Outcome::recoveryUs))},
        {"workloads.post_executions", "count",
         ratio(total(&OutcomeHead::postExecutions), campaigns)},
        {"trace.capture_ms", "ms", ms(&OutcomeHead::captureSeconds)},
        {"trace.pre_entries", "count",
         ratio(total(&OutcomeHead::preEntries), campaigns)},
        {"trace.post_entries", "count",
         ratio(total(&OutcomeHead::postEntries), campaigns)},
        {"trace.crash_prune_ratio", "ratio",
         ratio(total(&OutcomeHead::crashPruned),
               total(&OutcomeHead::crashEnumerated))},
        {"oracle.case_ms_p50", "ms",
         median(collect(diffs, [](const OutcomeHead &h) {
             return h.wallSeconds * 1e3;
         }))},
        {"oracle.agreement", "ratio",
         ratio(sum(diffs,
                   [](const OutcomeHead &h) { return h.oracleAgreements; }),
               sum(diffs,
                   [](const OutcomeHead &h) { return h.oraclePoints; }))},
        {"oracle.states_per_s", "1/s", oracleStatesPerS(diffs)},
        {"bugsuite.detected_ratio", "ratio",
         ratio(bugsDetected, static_cast<double>(bugs.size()))},
    };
}

std::size_t
Report::verdictErrors() const
{
    std::size_t errors = 0;
    // A draw run twice (a registry case in every round, a traced draw
    // and its untraced twin) must reproduce its fingerprint.
    std::map<std::string, std::uint64_t> seen;
    for (const auto &a : attempts) {
        if (a.failed)
            continue;
        const OutcomeHead &h = a.outcome.head;
        errors += h.expectedMissing + h.oracleBroken;
        auto [it, fresh] = seen.emplace(describe(a.draw), h.fingerprintHash);
        errors += !fresh && it->second != h.fingerprintHash;
    }
    return errors;
}

void
Report::print(std::FILE *out) const
{
    auto set = select(traced);
    const std::size_t failed = count(set, isFailed);
    std::fprintf(out, "perfbench %s: %zu campaigns, serial, closed loop "
                      "with one client\n  why: %s\n",
                 spec.name, set.size(), spec.why);

    std::fprintf(out, "end-to-end (tracing %s):\n", traced ? "on" : "off");
    for (const Metric &m : endToEnd(set)) {
        std::fprintf(out, "  %-22s %14.4f %s", m.name.c_str(), m.value,
                     m.unit.c_str());
        if (m.name == "campaign_tail_ms") {
            Tail t = wallTail(set);
            std::fprintf(out, "  (p%.1f of %zu campaigns, %zu beyond)",
                         t.percentile, t.samples,
                         t.samples > 10 ? std::size_t{10} : std::size_t{0});
        }
        std::fprintf(out, "\n");
    }
    std::fprintf(out, "  %-22s %14.4f 1/s%s\n", "oracle_states_per_s",
                 spec.differential ? oracleStatesPerS(set) : 0.0,
                 spec.differential ? "" : "  (no differential campaigns)");
    std::fprintf(out, "  %-22s %14.4f ratio  (%zu of %zu attempted)\n",
                 "failed_ratio",
                 ratio(static_cast<double>(failed),
                       static_cast<double>(set.size())),
                 failed, set.size());
    const std::size_t errors = verdictErrors();
    std::fprintf(out, "  %-22s %14zu count\n", "verdict_errors", errors);
    // Wall time the campaign's own phases miss.
    double wall = sum(set, [](const OutcomeHead &h) { return h.wallSeconds; });
    double unattributed = sum(set, [](const OutcomeHead &h) {
        return h.wallSeconds - h.phaseSeconds - h.hookSeconds;
    });
    std::fprintf(out,
                 "  %-22s %14.4f ms median per campaign; %.1f of %.1f ms "
                 "wall (%.1f%%) in no phase\n",
                 "core.unattributed_ms",
                 median(collect(set,
                                [](const OutcomeHead &h) {
                                    return (h.wallSeconds - h.phaseSeconds -
                                            h.hookSeconds) *
                                           1e3;
                                })),
                 unattributed * 1e3, wall * 1e3,
                 100 * ratio(unattributed, wall));

    std::fprintf(out,
                 "correctness: verdict_errors=%zu clean_findings=%zu "
                 "digest=%016llx -> %s\n",
                 errors, count(set, isCleanFinding),
                 static_cast<unsigned long long>(digestOf(set)),
                 errors ? "INCORRECT" : "correct");
    for (const Attempt *a : set) {
        if (isCleanFinding(*a)) {
            std::fprintf(out, "  clean finding: %s: %s\n",
                         describe(a->draw).c_str(),
                         a->outcome.firstFinding.c_str());
        }
    }
    for (const Attempt *a : set) {
        if (a->failed) {
            std::fprintf(out, "  failed: %s: %s\n",
                         describe(a->draw).c_str(), a->failure.c_str());
        }
    }
    if (!traced)
        return;

    std::fprintf(out, "per-layer (traced):\n");
    for (const Metric &m : perLayer(set)) {
        std::fprintf(out, "  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    }
    // Self time: a span's duration minus the part its children cover
    // (children of one span never overlap in a serial campaign).
    constexpr auto nNames = static_cast<std::size_t>(SpanName::Count);
    std::vector<double> total(nNames), self(nNames);
    std::vector<std::size_t> calls(nNames);
    double root = 0;
    for (const Attempt *a : set) {
        const auto &spans = a->outcome.spans;
        std::vector<double> children(spans.size());
        for (std::size_t i = 0; i < spans.size(); i++) {
            double d = static_cast<double>(spans[i].end - spans[i].start);
            if (spans[i].parent >= 0)
                children[spans[i].parent] += d;
            else
                root += d;
        }
        for (std::size_t i = 0; i < spans.size(); i++) {
            auto n = static_cast<std::size_t>(spans[i].name);
            double d = static_cast<double>(spans[i].end - spans[i].start);
            total[n] += d;
            self[n] += d - children[i];
            calls[n]++;
        }
    }
    std::fprintf(out, "self time by span (ms):\n  %-20s %10s %12s %12s "
                      "%7s\n",
                 "span", "calls", "total", "self", "self%");
    std::map<std::string, double> byLayer;
    for (std::size_t n = 0; n < nNames; n++) {
        const char *name = spanName(static_cast<SpanName>(n));
        byLayer[layerOf(name)] += self[n];
        if (!calls[n])
            continue;
        std::fprintf(out, "  %-20s %10zu %12.3f %12.3f %6.1f%%\n", name,
                     calls[n], total[n] * 1e-6, self[n] * 1e-6,
                     100 * ratio(self[n], root));
    }
    std::fprintf(out, "self time by layer (ms):\n");
    for (const auto &[layer, ns] : byLayer) {
        std::fprintf(out, "  %-20s %12.3f %6.1f%%\n", layer.c_str(), ns * 1e-6,
                     100 * ratio(ns, root));
    }

    // Tracing overhead: the draws run both ways, compared on the same
    // draws.
    auto plain = select(false);
    std::vector<const Attempt *> pairedTraced;
    for (const Attempt *p : plain)
        for (const Attempt *t : set)
            if (t->draw.id == p->draw.id)
                pairedTraced.push_back(t);
    std::fprintf(out,
                 "tracing overhead (traced - untraced, same %zu draws):\n",
                 plain.size());
    auto on = endToEnd(pairedTraced);
    auto off = endToEnd(plain);
    for (std::size_t i = 0; i < on.size(); i++) {
        if (on[i].name == "setup_s")
            continue;
        std::fprintf(out, "  %-22s %14.4f - %14.4f = %+12.4f %s\n",
                     on[i].name.c_str(), on[i].value, off[i].value,
                     on[i].value - off[i].value, on[i].unit.c_str());
    }
}

std::string
Report::json() const
{
    auto set = select(traced);
    std::string s = "{\"correct\": ";
    s += verdictErrors() ? "false" : "true";
    s += ", \"attempted\": " + std::to_string(set.size());
    s += ", \"failed\": " + std::to_string(count(set, isFailed));
    s += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : traced ? perLayer(set) : endToEnd(set)) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        s += first ? "" : ", ";
        s += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
             m.unit + "\"}";
        first = false;
    }
    return s + "}}";
}

bool
Report::writeChromeTrace(const std::string &path, std::int64_t epochNs) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    bool first = true;
    std::size_t base = 0;
    for (const Attempt *a : select(true)) {
        const auto &spans = a->outcome.spans;
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &sp = spans[i];
            const char *name = spanName(sp.name);
            long long parent =
                sp.parent < 0 ? -1
                              : static_cast<long long>(base) + sp.parent;
            std::fprintf(
                f,
                "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                "\"args\": {\"campaign\": %u, \"span\": %zu, "
                "\"parent\": %lld}}",
                first ? "" : ",", name, layerOf(name).c_str(),
                static_cast<double>(sp.start - epochNs) * 1e-3,
                static_cast<double>(sp.end - sp.start) * 1e-3, a->draw.id,
                base + i, parent);
            first = false;
        }
        base += spans.size();
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

bool
Report::writeDrawLog(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Attempt &a : attempts) {
        std::fprintf(f, "%u %s %s: ", a.draw.id,
                     a.traced ? "traced" : "untraced",
                     describe(a.draw).c_str());
        if (a.failed)
            std::fprintf(f, "FAILED %s\n", a.failure.c_str());
        else
            std::fprintf(f, "%.3f ms, %llu findings, fingerprint %016llx\n",
                         a.outcome.head.wallSeconds * 1e3,
                         static_cast<unsigned long long>(
                             a.outcome.head.findings),
                         static_cast<unsigned long long>(
                             a.outcome.head.fingerprintHash));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
