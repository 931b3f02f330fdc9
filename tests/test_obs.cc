/**
 * @file
 * Observability layer tests: JSON writer round-trips, stats registry
 * golden output, Chrome-trace/JSONL export structure, progress
 * formatting, and end-to-end campaign export — including that serial
 * and parallel campaigns export identical findings and stats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "core/campaign_json.hh"
#include "core/campaign_metrics.hh"
#include "core/config_flags.hh"
#include "core/driver.hh"
#include "core/observer.hh"
#include "harness.hh"
#include "mutate/campaign.hh"
#include "obs/json.hh"
#include "obs/phase_profiler.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "testutil_json.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using xfdtest::Json;
using xfdtest::parseJson;

// Before main(): every campaign in this binary checks each exec-pool
// restore against the full image (XFD_DELTA_VALIDATE).
const int validateEnvSet = (setenv("XFD_DELTA_VALIDATE", "1", 1), 0);

TEST(JsonWriter, EscapesAndNestingRoundTrip)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("plain", "hello");
    w.field("quoted", "a \"b\"\\\n\tc");
    w.field("int", static_cast<std::int64_t>(-3));
    w.field("big", std::uint64_t{1} << 53);
    w.field("pi", 3.25);
    w.field("flag", true);
    w.key("null").null();
    w.key("list").beginArray().value(1).value(2).endArray();
    w.key("nested").beginObject().field("x", 1).endObject();
    w.endObject();

    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.at("plain").str, "hello");
    EXPECT_EQ(doc.at("quoted").str, "a \"b\"\\\n\tc");
    EXPECT_EQ(doc.at("int").num, -3);
    EXPECT_EQ(doc.at("big").num,
              static_cast<double>(std::uint64_t{1} << 53));
    EXPECT_EQ(doc.at("pi").num, 3.25);
    EXPECT_TRUE(doc.at("flag").b);
    EXPECT_EQ(doc.at("null").kind, Json::Null);
    ASSERT_EQ(doc.at("list").arr.size(), 2u);
    EXPECT_EQ(doc.at("nested").at("x").num, 1);
}

TEST(JsonWriter, DoubleFormattingRoundTrips)
{
    for (double v : {0.1, 1.0 / 3.0, 1e-9, 6.02e23, -0.0, 12345.6789}) {
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.value(v);
        EXPECT_EQ(std::strtod(os.str().c_str(), nullptr), v)
            << os.str();
    }
}

TEST(StatsRegistry, GoldenScalarAndFormulaJson)
{
    obs::StatsRegistry reg;
    obs::Scalar &n = reg.scalar("a.count", "things counted");
    n += 2;
    ++n;
    obs::Scalar &d = reg.scalar("a.total", "things overall");
    d.set(6);
    reg.formula("a.ratio", "counted fraction",
                [&n, &d] { return n.value() / d.value(); });

    std::ostringstream os;
    obs::JsonWriter w(os);
    reg.writeJson(w);
    EXPECT_EQ(os.str(),
              "{\"a.count\":{\"type\":\"scalar\","
              "\"desc\":\"things counted\",\"value\":3},"
              "\"a.total\":{\"type\":\"scalar\","
              "\"desc\":\"things overall\",\"value\":6},"
              "\"a.ratio\":{\"type\":\"formula\","
              "\"desc\":\"counted fraction\",\"value\":0.5}}");
}

TEST(StatsRegistry, ReRegistrationReturnsExisting)
{
    obs::StatsRegistry reg;
    obs::Scalar &a = reg.scalar("x", "first");
    a.set(7);
    obs::Scalar &b = reg.scalar("x", "second registration ignored");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.value("x"), 7);
    EXPECT_EQ(reg.value("missing"), 0);
    EXPECT_NE(reg.find("x"), nullptr);
    EXPECT_EQ(reg.find("missing"), nullptr);
}

TEST(StatsRegistry, HistogramPowerOfTwoBuckets)
{
    obs::StatsRegistry reg;
    obs::Histogram &h = reg.histogram("lat", "latency");
    for (double v : {0.0, 1.0, 2.0, 3.0, 4.0, 1024.0})
        h.sample(v);

    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucketCount(0), 2u);  // [0, 2)
    EXPECT_EQ(h.bucketCount(1), 2u);  // [2, 4)
    EXPECT_EQ(h.bucketCount(2), 1u);  // [4, 8)
    EXPECT_EQ(h.bucketCount(10), 1u); // [1024, 2048)

    std::ostringstream os;
    obs::JsonWriter w(os);
    reg.writeJson(w);
    Json doc = parseJson(os.str());
    const Json &hist = doc.at("lat");
    EXPECT_EQ(hist.at("type").str, "histogram");
    EXPECT_EQ(hist.at("count").num, 6);
    EXPECT_EQ(hist.at("min").num, 0);
    EXPECT_EQ(hist.at("max").num, 1024);
    // Trailing zero buckets elided: bucket 10 is the last non-zero.
    EXPECT_EQ(hist.at("buckets").arr.size(), 11u);
}

TEST(StatsRegistry, DistributionBucketsAndOverflow)
{
    obs::StatsRegistry reg;
    obs::Distribution &d =
        reg.distribution("d", "samples", 0, 10, 5);
    d.sample(-1); // underflow
    d.sample(0);  // bucket 0
    d.sample(5);  // bucket 2
    d.sample(9.9);
    d.sample(10); // overflow
    EXPECT_EQ(d.count(), 5u);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(2), 1u);
    EXPECT_EQ(d.bucketCount(4), 1u);
}

TEST(Timeline, ChromeTraceStructure)
{
    obs::Timeline tl;
    int worker = tl.registerTrack("worker-1");
    tl.recordSpan("pre-failure", "phase", 0, 10, 100);
    tl.recordSpan("fp#3", "fp", worker, 120, 40);
    tl.recordInstant("bug", "fp", worker, 150);

    std::ostringstream os;
    tl.writeChromeTrace(os);
    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
    const auto &evs = doc.at("traceEvents").arr;
    // 2 thread_name metadata events + 3 recorded events.
    ASSERT_EQ(evs.size(), 5u);

    EXPECT_EQ(evs[0].at("ph").str, "M");
    EXPECT_EQ(evs[0].at("name").str, "thread_name");
    EXPECT_EQ(evs[0].at("args").at("name").str, "main");
    EXPECT_EQ(evs[1].at("args").at("name").str, "worker-1");

    const Json &span = evs[2];
    EXPECT_EQ(span.at("ph").str, "X");
    EXPECT_EQ(span.at("name").str, "pre-failure");
    EXPECT_EQ(span.at("cat").str, "phase");
    EXPECT_EQ(span.at("pid").num, 1);
    EXPECT_EQ(span.at("tid").num, 0);
    EXPECT_EQ(span.at("ts").num, 10);
    EXPECT_EQ(span.at("dur").num, 100);

    const Json &instant = evs[4];
    EXPECT_EQ(instant.at("ph").str, "i");
    EXPECT_EQ(instant.at("s").str, "t");
    EXPECT_EQ(instant.find("dur"), nullptr);

    // Non-metadata events come out sorted by timestamp.
    double prev = -1;
    for (std::size_t i = 2; i < evs.size(); i++) {
        EXPECT_GE(evs[i].at("ts").num, prev);
        prev = evs[i].at("ts").num;
    }
}

TEST(Timeline, JsonlOneObjectPerLine)
{
    obs::Timeline tl;
    tl.recordSpan("a", "phase", 0, 5, 10);
    tl.recordInstant("b", "phase", 0, 20);

    std::ostringstream os;
    tl.writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        Json doc = parseJson(line);
        EXPECT_EQ(doc.at("cat").str, "phase");
        lines++;
    }
    EXPECT_EQ(lines, 2u);
}

TEST(Timeline, DisabledTimelineRecordsNothing)
{
    obs::Timeline tl;
    tl.setEnabled(false);
    {
        obs::SpanScope span(&tl, "ignored", "phase", 0);
    }
    tl.recordInstant("also ignored", "phase", 0, 1);
    EXPECT_EQ(tl.size(), 0u);

    // Null timeline is equally fine.
    obs::SpanScope span(nullptr, "x", "phase", 0);
}

TEST(Progress, FormatGolden)
{
    EXPECT_EQ(obs::formatProgress("fp", 37, 214, 12, 4.1),
              "[fp 37/214, 12 bugs, ETA 4.1s]");
    EXPECT_EQ(obs::formatProgress("fp", 214, 214, 0, 0),
              "[fp 214/214, 0 bugs, ETA 0.0s]");
}

TEST(Progress, MeterRateLimitsAndAlwaysPrintsFinal)
{
    setVerbose(true);
    obs::ProgressMeter meter("fp", /*min_interval=*/3600);
    meter.update(1, 100, 0);
    meter.update(2, 100, 0);  // inside the interval: suppressed
    meter.update(3, 100, 0);  // suppressed
    EXPECT_EQ(meter.linesPrinted(), 1u);
    meter.update(100, 100, 1); // final: always prints
    EXPECT_EQ(meter.linesPrinted(), 2u);

    obs::ProgressMeter quiet("fp", 0);
    setVerbose(false);
    quiet.update(1, 2, 0);
    EXPECT_EQ(quiet.linesPrinted(), 0u);
    setVerbose(true);
}

core::CampaignResult
runObserved(const std::string &workload, unsigned threads,
            core::CampaignObserver &obs,
            const core::DetectorConfig &dcfg = {},
            const char *bug = nullptr)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 5;
    cfg.postOps = 2;
    if (bug)
        cfg.bugs.enable(bug);
    xfdtest::RunOptions opt;
    opt.detector = dcfg;
    opt.threads = threads;
    opt.observer = &obs;
    return xfdtest::runWorkload(workload, cfg, opt);
}

/** The JSON object a metric section is written into. */
const Json &
sectionJson(const Json &doc, const std::string &section)
{
    if (section.empty())
        return doc.at("campaign");
    if (section == "crash_states")
        return doc.at("campaign").at("crash_states");
    return doc.at(section);
}

/**
 * Every campaignMetrics() row, partial_findings and every phase must
 * read the same from the result, the stats JSON and the registry.
 */
void
expectViewsAgree(const core::CampaignResult &res,
                 const obs::StatsRegistry &reg)
{
    std::ostringstream os;
    core::writeStatsJson(res, &reg, os);
    Json doc = parseJson(os.str());
    const core::CampaignStats &st = res.statistics();
    for (const auto &m : core::campaignMetrics()) {
        SCOPED_TRACE(m.registryName());
        double v = m.get(st);
        EXPECT_NE(reg.find(m.registryName()), nullptr);
        EXPECT_EQ(reg.value(m.registryName()), v);
        EXPECT_EQ(sectionJson(doc, m.section).at(m.key).num, v);
    }
    double partial = static_cast<double>(res.partialImageFindings());
    EXPECT_EQ(reg.value("campaign.crash_states.partial_findings"), partial);
    EXPECT_EQ(sectionJson(doc, "crash_states").at("partial_findings").num,
              partial);
    const Json &phases = doc.at("campaign").at("phases");
    for (std::size_t i = 0; i < obs::phaseCount; i++) {
        std::string name = obs::phaseName(static_cast<obs::Phase>(i));
        SCOPED_TRACE(name);
        std::string prefix = "campaign.phase." + name;
        EXPECT_EQ(reg.value(prefix + "_seconds"), st.phases.seconds[i]);
        EXPECT_EQ(reg.value(prefix + "_count"),
                  static_cast<double>(st.phases.count[i]));
        if (const Json *ph = phases.find(name)) {
            EXPECT_EQ(ph->at("seconds").num, st.phases.seconds[i]);
            EXPECT_EQ(ph->at("count").num,
                      static_cast<double>(st.phases.count[i]));
        } else {
            EXPECT_EQ(st.phases.count[i], 0u);
        }
    }
    EXPECT_EQ(reg.value("campaign.phase.total_seconds"),
              st.phases.total());
}

TEST(CampaignExport, StatsRegistryMatchesCampaignStats)
{
    if (!obs::statsCompiledIn)
        GTEST_SKIP() << "stats compiled out (XFD_STATS_NOOP)";
    core::CampaignObserver obs;
    auto res = runObserved("btree", 1, obs);
    {
        SCOPED_TRACE("serial btree");
        expectViewsAgree(res, obs.stats);
    }
    {
        SCOPED_TRACE("4-thread btree");
        core::CampaignObserver par_obs;
        auto par = runObserved("btree", 4, par_obs);
        expectViewsAgree(par, par_obs.stats);
    }
    {
        // One campaign where the optional rows are live: batching,
        // emit-time elision, partial crash states (with a planted
        // partial-image bug) and page-granular resyncs.
        SCOPED_TRACE("batched ringlog with crash states");
        core::DetectorConfig dcfg;
        dcfg.backend = "batched";
        dcfg.crashStates = "sample:4";
        dcfg.elideSameValueWrites = true;
        core::CampaignObserver cs_obs;
        auto cs = runObserved("ringlog", 1, cs_obs, dcfg,
                              "ringlog.recovery.mirror_mismatch_abort");
        const core::CampaignStats &st = cs.statistics();
        EXPECT_GT(st.batchGroups, 0u);
        EXPECT_GT(st.sameValueElided, 0u);
        EXPECT_GT(st.crashStatesEnumerated, 0u);
        EXPECT_GT(st.crashStatesExplored, 0u);
        EXPECT_GT(cs.partialImageFindings(), 0u);
        EXPECT_GT(st.restore.syncRestores, 0u);
        expectViewsAgree(cs, cs_obs.stats);
    }
    {
        // Batching folds equivalent points before crash-state pruning
        // could see them, so the pruning rows need the delta backend.
        SCOPED_TRACE("delta btree with crash states");
        core::DetectorConfig dcfg;
        dcfg.crashStates = "sample:4";
        core::CampaignObserver cs_obs;
        auto cs = runObserved("btree", 1, cs_obs, dcfg);
        EXPECT_GT(cs.statistics().crashStatesPruned, 0u);
        expectViewsAgree(cs, cs_obs.stats);
    }

    const obs::StatsRegistry &reg = obs.stats;
    EXPECT_EQ(reg.value("campaign.bugs"),
              static_cast<double>(res.findings().size()));

    // Shadow-FSM edges: a btree campaign writes, flushes and fences.
    EXPECT_GT(reg.value("shadow_fsm.edge.Modified_to_WritebackPending"),
              0);
    EXPECT_GT(reg.value("shadow_fsm.edge.WritebackPending_to_Persisted"),
              0);
    EXPECT_GT(reg.value("shadow_fsm.fences"), 0);

    // Per-op trace volumes cover the whole pre-trace.
    EXPECT_GT(reg.value("trace.pre.WRITE"), 0);
    EXPECT_GT(reg.value("trace.post.READ"), 0);

    // One latency sample per post-failure execution.
    const auto *h = dynamic_cast<const obs::Histogram *>(
        reg.find("campaign.post_exec_latency_us"));
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), res.statistics().postExecutions);
}

TEST(CampaignExport, StatsJsonDocumentIsValid)
{
    core::CampaignObserver obs;
    auto res = runObserved("btree", 1, obs);

    std::ostringstream os;
    core::writeStatsJson(res, &obs.stats, os);
    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.at("schema").str, "xfd-stats-v1");
    const Json &camp = doc.at("campaign");
    EXPECT_EQ(camp.at("failure_points").num,
              static_cast<double>(res.statistics().failurePoints));
    EXPECT_EQ(camp.at("checks_performed").num,
              static_cast<double>(res.statistics().checksPerformed));
    EXPECT_EQ(camp.at("pre_seconds").num, res.statistics().preSeconds);
    EXPECT_EQ(camp.at("post_seconds").num, res.statistics().postSeconds);
    EXPECT_EQ(camp.at("backend_seconds").num,
              res.statistics().backendSeconds);
    EXPECT_EQ(doc.at("bugs").at("total").num,
              static_cast<double>(res.findings().size()));
    const Json &restore = doc.at("restore");
    EXPECT_EQ(restore.at("pool_bytes").num,
              static_cast<double>(res.statistics().poolBytes));
    EXPECT_EQ(restore.at("bytes_copied").num,
              static_cast<double>(res.statistics().restore.bytesCopied()));
    if (obs::statsCompiledIn) {
        EXPECT_NE(doc.at("stats").find("campaign.post_exec_latency_us"),
                  nullptr);
    }
}

TEST(CampaignExport, StatsJsonEchoesEveryConfigFlag)
{
    core::CampaignObserver obs;
    auto res = runObserved("btree", 1, obs);

    core::DetectorConfig dcfg;
    dcfg.crashStates = "durable";
    dcfg.deltaPageSize = 256;
    std::ostringstream os;
    core::writeStatsJson(res, &dcfg, &obs.stats, os);
    Json doc = parseJson(os.str());

    const Json &conf = doc.at("config");
    for (const auto &d : core::detectorFlagTable())
        EXPECT_NE(conf.find(d.jsonKey), nullptr) << d.jsonKey;
    EXPECT_EQ(conf.at("crash_states").str, "durable");
    EXPECT_EQ(conf.at("backend").str, "delta");
    EXPECT_EQ(conf.at("delta_page_size").num, 256);
    EXPECT_EQ(conf.at("granularity").num, 1);

    // The three-argument overload omits the echo.
    std::ostringstream os2;
    core::writeStatsJson(res, &obs.stats, os2);
    EXPECT_EQ(parseJson(os2.str()).find("config"), nullptr);
}

TEST(ConfigFlags, TableRowsAreWellFormedAndUnique)
{
    std::set<std::string> flags, keys;
    for (const auto &d : core::detectorFlagTable()) {
        EXPECT_TRUE(flags.insert(d.flag).second) << d.flag;
        EXPECT_TRUE(keys.insert(d.jsonKey).second) << d.jsonKey;
        int typed = (d.boolField != nullptr) +
                    (d.uintField != nullptr) + (d.sizeField != nullptr) +
                    (d.stringField != nullptr);
        EXPECT_EQ(typed, 1) << d.flag;
        // Switches and flags with an implied value consume no
        // separate argv slot; everything else requires one.
        EXPECT_EQ(d.takesValue(),
                  d.boolField == nullptr && d.impliedValue == nullptr)
            << d.flag;
        if (d.impliedValue) {
            EXPECT_NE(d.stringField, nullptr) << d.flag;
        }
        EXPECT_NE(core::findDetectorFlag(d.flag), nullptr) << d.flag;
    }
    EXPECT_EQ(core::findDetectorFlag("--not-a-flag"), nullptr);
    EXPECT_FALSE(core::detectorFlagHelp().empty());
}

TEST(ConfigFlags, ApplySetsTheMappedField)
{
    core::DetectorConfig cfg;
    core::applyDetectorFlag(*core::findDetectorFlag("--backend"), cfg,
                            "batched");
    EXPECT_TRUE(cfg.batchingOn());
    core::applyDetectorFlag(*core::findDetectorFlag("--backend"), cfg,
                            "delta");
    EXPECT_EQ(cfg.backend, "delta");
    EXPECT_FALSE(cfg.batchingOn());
    // One spelling per option: the retired full-copy backend and the
    // alias switches are unknown, and a rejected value leaves the
    // field alone.
    EXPECT_FALSE(core::applyDetectorFlag(*core::findDetectorFlag(
                                             "--backend"),
                                         cfg, "full")
                     .empty());
    EXPECT_EQ(cfg.backend, "delta");
    for (const char *gone : {"--no-delta", "--lint-prune", "--crash-image"})
        EXPECT_EQ(core::findDetectorFlag(gone), nullptr) << gone;
    core::applyDetectorFlag(*core::findDetectorFlag("--delta-page"),
                            cfg, "256");
    EXPECT_EQ(cfg.deltaPageSize, 256u);
    core::applyDetectorFlag(
        *core::findDetectorFlag("--delta-checkpoint"), cfg, "7");
    EXPECT_EQ(cfg.deltaCheckpointInterval, 7u);
    core::applyDetectorFlag(*core::findDetectorFlag("--granularity"),
                            cfg, "4");
    EXPECT_EQ(cfg.granularity, 4u);
    core::applyDetectorFlag(*core::findDetectorFlag("--strict-persist"),
                            cfg, nullptr);
    EXPECT_TRUE(cfg.strictPersistCheck);

    // --mutate is a string flag with an implied value: bare use means
    // "all", an attached value is passed through.
    const auto *mut = core::findDetectorFlag("--mutate");
    ASSERT_NE(mut, nullptr);
    EXPECT_FALSE(mut->takesValue());
    core::applyDetectorFlag(*mut, cfg, nullptr);
    EXPECT_EQ(cfg.mutateOps, "all");
    core::applyDetectorFlag(*mut, cfg, "quick");
    EXPECT_EQ(cfg.mutateOps, "quick");
    core::applyDetectorFlag(*core::findDetectorFlag("--mutation-seed"),
                            cfg, "9");
    EXPECT_EQ(cfg.mutationSeed, 9u);

    // Untouched fields keep their defaults.
    EXPECT_TRUE(cfg.elideEmptyFailurePoints);
    EXPECT_EQ(cfg.maxFailurePoints, 0u);
}

TEST(MutationExport, JsonObjectGolden)
{
    // A hand-built report exercises the exporter deterministically —
    // no campaign needed, and zero-mutant operators must be omitted.
    mutate::MutationReport rep;
    rep.seed = 7;
    rep.enumerated = 5;
    rep.baselineFindings = 1;
    auto &df = rep.perOp[static_cast<std::size_t>(
        mutate::MutationOp::DropFlush)];
    df.mutants = 4;
    df.detected = 3;
    df.truePositives = 3;
    df.falsePositives = 1;
    rep.aggregate = df;
    rep.aggregate.falsePositives += rep.baselineFindings;

    std::ostringstream os;
    obs::JsonWriter w(os);
    rep.writeJson(w);
    Json doc = parseJson(os.str());

    EXPECT_EQ(doc.at("seed").num, 7);
    EXPECT_EQ(doc.at("enumerated").num, 5);
    EXPECT_EQ(doc.at("mutants").num, 4);
    EXPECT_EQ(doc.at("baseline_findings").num, 1);

    const Json &per = doc.at("per_operator");
    ASSERT_EQ(per.obj.size(), 1u); // only drop_flush has mutants
    const Json &dfj = per.at("drop_flush");
    EXPECT_EQ(dfj.at("mutants").num, 4);
    EXPECT_EQ(dfj.at("detected").num, 3);
    EXPECT_EQ(dfj.at("true_positives").num, 3);
    EXPECT_EQ(dfj.at("false_positives").num, 1);
    EXPECT_DOUBLE_EQ(dfj.at("recall").num, 0.75);
    EXPECT_DOUBLE_EQ(dfj.at("precision").num, 0.75);

    const Json &agg = doc.at("aggregate");
    EXPECT_EQ(agg.at("false_positives").num, 2);
    EXPECT_DOUBLE_EQ(agg.at("precision").num, 0.6);
}

TEST(MutationExport, StatsRegistryMirrorsReport)
{
    mutate::MutationReport rep;
    rep.enumerated = 3;
    rep.aggregate.mutants = 3;
    rep.aggregate.detected = 2;
    rep.aggregate.truePositives = 2;
    rep.aggregate.falsePositives = 1;

    obs::StatsRegistry reg;
    mutate::exportMutationStats(rep, reg);
    EXPECT_EQ(reg.value("campaign.mutation.mutants"), 3);
    EXPECT_EQ(reg.value("campaign.mutation.detected"), 2);
    EXPECT_DOUBLE_EQ(reg.value("campaign.mutation.recall"), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(reg.value("campaign.mutation.precision"),
                     2.0 / 3.0);
}

TEST(MutationExport, ScoreboardTextGolden)
{
    // Same hand-built report style as JsonObjectGolden, but freezing
    // the human-readable table: column layout, per-operator rows,
    // aggregate row, baseline line and MISSED listing.
    mutate::MutationReport rep;
    auto &df = rep.perOp[static_cast<std::size_t>(
        mutate::MutationOp::DropFlush)];
    df.mutants = 4;
    df.detected = 3;
    df.truePositives = 3;
    df.falsePositives = 1;
    auto &dn = rep.perOp[static_cast<std::size_t>(
        mutate::MutationOp::DropFence)];
    dn.mutants = 2;
    dn.detected = 2;
    dn.truePositives = 2;
    dn.falsePositives = 0;
    rep.baselineFindings = 1;
    rep.aggregate.mutants = 6;
    rep.aggregate.detected = 5;
    rep.aggregate.truePositives = 5;
    rep.aggregate.falsePositives = 2;

    mutate::MutantOutcome missed;
    missed.mutant.op = mutate::MutationOp::DropFlush;
    missed.mutant.occurrence = 3;
    missed.mutant.site = trace::SrcLoc{"btree.cc", 42, "insert"};
    missed.detected = false;
    rep.outcomes.push_back(missed);

    const std::string expected =
        "=== mutation scoreboard: 6 mutant(s), 5 detected ===\n"
        "operator             mutants detected  recall    TP    FP "
        "precision     F1\n"
        "drop_flush                 4        3   0.750     3     1 "
        "    0.750  0.750\n"
        "drop_fence                 2        2   1.000     2     0 "
        "    1.000  1.000\n"
        "aggregate                  6        5   0.833     5     2 "
        "    0.714  0.769\n"
        "baseline findings (counted as false positives): 1\n"
        "  MISSED  drop_flush #3 @ btree.cc:42\n";
    EXPECT_EQ(rep.scoreboard(), expected);
}

TEST(CampaignExport, SerialAndParallelExportIdentically)
{
    core::CampaignObserver serial_obs, par_obs;
    auto serial = runObserved("hashmap_tx", 1, serial_obs);
    auto par = runObserved("hashmap_tx", 4, par_obs);

    // Byte-identical findings documents.
    std::ostringstream serial_report, par_report;
    core::writeReportJson(serial, serial_report);
    core::writeReportJson(par, par_report);
    EXPECT_EQ(serial_report.str(), par_report.str());

    // Identical check accounting and FSM counters.
    EXPECT_EQ(serial.statistics().checksPerformed,
              par.statistics().checksPerformed);
    EXPECT_EQ(serial.statistics().checksSkipped,
              par.statistics().checksSkipped);
    for (const char *key :
         {"shadow_fsm.edge.Unmodified_to_Modified",
          "shadow_fsm.edge.Modified_to_WritebackPending",
          "shadow_fsm.edge.WritebackPending_to_Persisted",
          "shadow_fsm.fences", "campaign.checks_performed",
          "campaign.checks_skipped", "campaign.post_executions",
          "trace.pre.WRITE", "trace.post.READ"}) {
        EXPECT_EQ(serial_obs.stats.value(key), par_obs.stats.value(key))
            << key;
    }
}

TEST(CampaignExport, ParallelWorkersGetDistinctTimelineTracks)
{
    core::CampaignObserver obs;
    auto res = runObserved("btree", 4, obs);
    ASSERT_EQ(res.statistics().threads, 4u);

    std::ostringstream os;
    obs.timeline.writeChromeTrace(os);
    Json doc = parseJson(os.str());

    std::set<double> fp_tids;
    std::set<std::string> labels;
    for (const Json &e : doc.at("traceEvents").arr) {
        if (e.at("ph").str == "M")
            labels.insert(e.at("args").at("name").str);
        else if (e.at("cat").str == "fp")
            fp_tids.insert(e.at("tid").num);
    }
    EXPECT_GE(fp_tids.size(), 2u);
    EXPECT_TRUE(labels.count("main"));
    EXPECT_TRUE(labels.count("worker-0"));
    EXPECT_TRUE(labels.count("worker-3"));
}

TEST(CampaignExport, ProgressCallbackCoversEveryFailurePoint)
{
    struct Ticks : core::CampaignHooks
    {
        std::size_t calls = 0;
        std::size_t lastDone = 0, lastTotal = 0;
        void
        onProgress(const core::ProgressUpdate &u) override
        {
            calls++;
            lastDone = std::max(lastDone, u.done);
            lastTotal = u.total;
        }
    } ticks;
    core::CampaignObserver obs;
    obs.hooks = &ticks;
    auto res = runObserved("btree", 2, obs);
    // One tick per executed failure point, plus the zero anchor tick
    // the driver fires before the loop starts.
    EXPECT_EQ(ticks.calls, res.statistics().failurePoints + 1);
    EXPECT_EQ(ticks.lastDone, res.statistics().failurePoints);
    EXPECT_EQ(ticks.lastTotal, res.statistics().failurePoints);
}

TEST(CampaignExport, NoStatsWhenCollectionDisabled)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 2;
    cfg.testOps = 2;
    auto w = workloads::makeWorkload("btree", cfg);
    pm::PmPool pool(1 << 22);
    core::DetectorConfig dcfg;
    dcfg.collectStats = false;
    core::Driver driver(pool, dcfg);
    core::CampaignObserver obs;
    driver.setObserver(&obs);
    auto res = driver.run([&](trace::PmRuntime &rt) { w->pre(rt); },
                          [&](trace::PmRuntime &rt) { w->post(rt); });
    EXPECT_GT(res.statistics().postExecutions, 0u);
    EXPECT_TRUE(obs.stats.empty());

    // The stats document still works without a registry.
    std::ostringstream os;
    core::writeStatsJson(res, nullptr, os);
    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.find("stats"), nullptr);
    EXPECT_EQ(doc.at("schema").str, "xfd-stats-v1");
}

} // namespace
