#include "mutate/campaign.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "core/campaign_json.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"
#include "xfd.hh"

namespace xfd::mutate
{

namespace
{

/** Same identity the BugSink dedupes on, plus the class. */
std::string
findingKey(const core::BugReport &b)
{
    return strprintf("%d|%s:%u|%s:%u", static_cast<int>(b.type),
                     b.reader.file, b.reader.line, b.writer.file,
                     b.writer.line);
}

bool
matchesGroundTruth(const core::BugReport &b, const Mutant &m)
{
    if (b.type != m.expected)
        return false;
    AddrRange read{b.addr, b.addr + std::max<std::size_t>(b.size, 1)};
    for (const AddrRange &r : m.affected) {
        if (read.overlaps(r))
            return true;
    }
    return false;
}

/**
 * Deterministic per-operator subsample: xorshift-shuffle each
 * operator's candidates with a seed-derived state, keep the first
 * @p cap, restore trace order. No global RNG: the same (plan, seed,
 * cap) always keeps the same mutants.
 */
void
applyPerOpCap(std::vector<Mutant> &mutants, std::size_t cap,
              std::size_t seed)
{
    if (cap == 0)
        return;
    std::vector<Mutant> kept;
    kept.reserve(mutants.size());
    for (std::size_t op = 0; op < mutationOpCount; op++) {
        std::vector<Mutant> mine;
        for (const Mutant &m : mutants) {
            if (static_cast<std::size_t>(m.op) == op)
                mine.push_back(m);
        }
        if (mine.size() > cap) {
            std::uint64_t state =
                (seed + 1) * 0x9e3779b97f4a7c15ull + op;
            auto next = [&state] {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                return state;
            };
            for (std::size_t i = mine.size(); i > 1; i--)
                std::swap(mine[i - 1], mine[next() % i]);
            mine.resize(cap);
            std::sort(mine.begin(), mine.end(),
                      [](const Mutant &a, const Mutant &b) {
                          return a.occurrence < b.occurrence;
                      });
        }
        kept.insert(kept.end(), mine.begin(), mine.end());
    }
    mutants.swap(kept);
}

void
writeScore(obs::JsonWriter &w, const OpScore &s)
{
    w.beginObject();
    w.field("mutants", static_cast<std::uint64_t>(s.mutants));
    w.field("detected", static_cast<std::uint64_t>(s.detected));
    w.field("true_positives",
            static_cast<std::uint64_t>(s.truePositives));
    w.field("false_positives",
            static_cast<std::uint64_t>(s.falsePositives));
    w.field("precision", s.precision());
    w.field("recall", s.recall());
    w.field("f1", s.f1());
    w.endObject();
}

} // namespace

MutationReport
runMutationCampaign(const MutationConfig &mcfg)
{
    MutationReport rep;
    rep.seed = mcfg.seed;

    // The inner campaigns must never recurse into mutation mode, and
    // run plain — oracle cross-checking of mutants is the differential
    // harness's job (src/oracle/diff), not each inner campaign's.
    core::DetectorConfig dcfg = mcfg.detector;
    dcfg.mutateOps.clear();
    dcfg.oracleMode.clear();
    dcfg.oracleArtifactDir.clear();

    // Trace the unmutated pre-failure stage once; the plan addresses
    // re-executions of the same deterministic program by occurrence.
    trace::TraceBuffer baseTrace;
    {
        pm::PmPool scratch(mcfg.poolBytes);
        trace::PmRuntime rt(scratch, baseTrace, trace::Stage::PreFailure);
        try {
            mcfg.pre(rt);
        } catch (const trace::StageComplete &) {
        }
    }

    std::vector<Mutant> mutants =
        enumerateMutants(baseTrace, dcfg, mcfg.ops);
    rep.enumerated = mutants.size();
    applyPerOpCap(mutants, mcfg.maxPerOp, mcfg.seed);

    auto runOne = [&](trace::MutationHook *hook,
                      core::CampaignObserver *obs) {
        auto campaign = Campaign::forProgram(
                            [&](trace::PmRuntime &rt) {
                                rt.setMutationHook(hook);
                                mcfg.pre(rt);
                            },
                            mcfg.post)
                            .poolSize(mcfg.poolBytes)
                            .threads(mcfg.threads)
                            .config(dcfg);
        if (obs)
            campaign.observer(obs);
        return campaign.run();
    };

    // Baseline: the workload is correct by assumption, so everything
    // found here is a false positive — and pre-existing findings must
    // not score as detections of a mutant.
    rep.baseline = runOne(nullptr, mcfg.observer);
    rep.baselineFindings = rep.baseline.findings().size();
    std::set<std::string> baselineKeys;
    for (const core::BugReport &b : rep.baseline.findings())
        baselineKeys.insert(findingKey(b));

    for (std::size_t i = 0; i < mutants.size(); i++) {
        const Mutant &m = mutants[i];
        ActiveMutation act(m.op, m.occurrence);
        core::CampaignResult res = runOne(&act, nullptr);

        MutantOutcome out;
        out.mutant = m;
        out.fired = act.fired();
        if (!out.fired)
            warn("mutation %s never fired", m.describe().c_str());
        for (const core::BugReport &b : res.findings()) {
            if (baselineKeys.count(findingKey(b)))
                continue;
            if (matchesGroundTruth(b, m))
                out.matchedFindings++;
            else
                out.unmatchedFindings++;
        }
        out.detected = out.matchedFindings > 0;

        OpScore &sc = rep.perOp[static_cast<std::size_t>(m.op)];
        sc.mutants++;
        sc.detected += out.detected ? 1 : 0;
        sc.truePositives += out.matchedFindings;
        sc.falsePositives += out.unmatchedFindings;
        rep.outcomes.push_back(std::move(out));

        if (mcfg.onMutant)
            mcfg.onMutant(i + 1, mutants.size(), m,
                          rep.outcomes.back().detected);
    }

    for (const OpScore &sc : rep.perOp) {
        rep.aggregate.mutants += sc.mutants;
        rep.aggregate.detected += sc.detected;
        rep.aggregate.truePositives += sc.truePositives;
        rep.aggregate.falsePositives += sc.falsePositives;
    }
    rep.aggregate.falsePositives += rep.baselineFindings;
    return rep;
}

std::string
MutationReport::scoreboard() const
{
    std::string s = strprintf(
        "=== mutation scoreboard: %zu mutant(s), %zu detected ===\n",
        aggregate.mutants, aggregate.detected);
    s += strprintf("%-20s %7s %8s %7s %5s %5s %9s %6s\n", "operator",
                   "mutants", "detected", "recall", "TP", "FP",
                   "precision", "F1");
    for (std::size_t op = 0; op < mutationOpCount; op++) {
        const OpScore &sc = perOp[op];
        if (sc.mutants == 0)
            continue;
        s += strprintf("%-20s %7zu %8zu %7.3f %5zu %5zu %9.3f %6.3f\n",
                       mutationOpName(static_cast<MutationOp>(op)),
                       sc.mutants, sc.detected, sc.recall(),
                       sc.truePositives, sc.falsePositives,
                       sc.precision(), sc.f1());
    }
    s += strprintf("%-20s %7zu %8zu %7.3f %5zu %5zu %9.3f %6.3f\n",
                   "aggregate", aggregate.mutants, aggregate.detected,
                   aggregate.recall(), aggregate.truePositives,
                   aggregate.falsePositives, aggregate.precision(),
                   aggregate.f1());
    s += strprintf(
        "baseline findings (counted as false positives): %zu\n",
        baselineFindings);
    for (const MutantOutcome &out : outcomes) {
        if (!out.detected)
            s += strprintf("  MISSED  %s\n",
                           out.mutant.describe().c_str());
    }
    return s;
}

void
MutationReport::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.field("seed", static_cast<std::uint64_t>(seed));
    w.field("enumerated", static_cast<std::uint64_t>(enumerated));
    w.field("mutants", static_cast<std::uint64_t>(aggregate.mutants));
    w.field("baseline_findings",
            static_cast<std::uint64_t>(baselineFindings));
    w.key("per_operator").beginObject();
    for (std::size_t op = 0; op < mutationOpCount; op++) {
        if (perOp[op].mutants == 0)
            continue;
        w.key(mutationOpName(static_cast<MutationOp>(op)));
        writeScore(w, perOp[op]);
    }
    w.endObject();
    w.key("aggregate");
    writeScore(w, aggregate);
    w.endObject();
}

void
exportMutationStats(const MutationReport &r, obs::StatsRegistry &reg)
{
    auto scalar = [&reg](const std::string &name, const char *desc,
                         double v) -> obs::Scalar & {
        obs::Scalar &s = reg.scalar(name, desc);
        s.set(v);
        return s;
    };

    scalar("campaign.mutation.enumerated", "mutants the planner found",
           static_cast<double>(r.enumerated));
    obs::Scalar &mutants =
        scalar("campaign.mutation.mutants", "mutant campaigns run",
               static_cast<double>(r.aggregate.mutants));
    obs::Scalar &detected =
        scalar("campaign.mutation.detected",
               "mutants with a matching finding",
               static_cast<double>(r.aggregate.detected));
    obs::Scalar &tp =
        scalar("campaign.mutation.true_positives",
               "findings matching planted ground truth",
               static_cast<double>(r.aggregate.truePositives));
    obs::Scalar &fp =
        scalar("campaign.mutation.false_positives",
               "findings matching no planted bug (incl. baseline)",
               static_cast<double>(r.aggregate.falsePositives));
    scalar("campaign.mutation.baseline_findings",
           "findings of the unmutated baseline run",
           static_cast<double>(r.baselineFindings));

    reg.formula("campaign.mutation.recall", "detected / mutants",
                [&mutants, &detected] {
                    return mutants.value()
                               ? detected.value() / mutants.value()
                               : 1.0;
                });
    reg.formula("campaign.mutation.precision", "TP / (TP + FP)",
                [&tp, &fp] {
                    double denom = tp.value() + fp.value();
                    return denom ? tp.value() / denom : 1.0;
                });

    for (std::size_t op = 0; op < mutationOpCount; op++) {
        const OpScore &sc = r.perOp[op];
        if (sc.mutants == 0)
            continue;
        std::string prefix = std::string("campaign.mutation.") +
                             mutationOpName(static_cast<MutationOp>(op));
        scalar(prefix + ".mutants", "mutant campaigns run",
               static_cast<double>(sc.mutants));
        scalar(prefix + ".detected", "mutants with a matching finding",
               static_cast<double>(sc.detected));
        scalar(prefix + ".recall", "detected / mutants", sc.recall());
        scalar(prefix + ".precision", "TP / (TP + FP)",
               sc.precision());
    }
}

} // namespace xfd::mutate
