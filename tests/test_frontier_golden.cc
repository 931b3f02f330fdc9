/**
 * @file
 * Pins the frontier-signature grouping contract on real traces. For
 * every bug-suite registry case and every clean workload, under both
 * persistency models and with same-value elision off and on, the
 * batched schedule (core::planBatches: each representative with the
 * points folded into it) and the crash-state sampler stream of every
 * planned failure point must equal tests/golden/frontier_groups.txt.
 *
 * Source paths inside the equivalence key are absolute, so the
 * recorded stream is the FNV-1a 64 hash of the key with the checkout
 * root cut out; the test also checks that lint::samplerStream() is
 * that hash of the uncut key, which is what the detector and the
 * oracle feed the sampler. Keys hold source line numbers, so an edit
 * that moves a traced statement in src/ changes streams (not groups)
 * and needs a new recording.
 *
 * Regenerate (only when such a change is intended):
 *     XFD_GOLDEN_RECORD=tests/golden/frontier_groups.txt \
 *         ./build/tests/test_frontier_golden
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "core/failure_planner.hh"
#include "harness.hh"
#include "lint/frontier.hh"

namespace
{

using namespace xfd;

const std::string sourceRoot = XFD_SOURCE_ROOT;

std::string
withoutRoot(const std::string &s)
{
    std::string out;
    std::size_t from = 0;
    for (std::size_t p = s.find(sourceRoot); p != std::string::npos;
         p = s.find(sourceRoot, from)) {
        out.append(s, from, p - from);
        from = p + sourceRoot.size();
    }
    return out.append(s, from);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s)
        h = (h ^ c) * 1099511628211ull;
    return h;
}

trace::TraceBuffer
preTraceOf(const std::string &workload,
           const workloads::WorkloadConfig &wcfg, bool elide)
{
    trace::TraceBuffer buf;
    pm::PmPool pool(xfdtest::defaultPoolBytes);
    auto w = workloads::makeWorkload(workload, wcfg);
    trace::PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    rt.setBatching(true);
    rt.setSameValueElision(elide);
    try {
        w->pre(rt);
    } catch (const trace::StageComplete &) {
    }
    rt.setBatching(false);
    return buf;
}

/**
 * One golden line: each batch group as its representative, the
 * representative's stream and the folded points. A folded point
 * shares its representative's location and signature, so its stream
 * must be the representative's; that is checked, not recorded.
 */
std::string
recordOf(const std::string &name, const trace::TraceBuffer &pre,
         const char *model, bool elide)
{
    core::DetectorConfig cfg;
    cfg.pmModel = model;
    core::FailurePlan plan = core::planFailurePoints(pre, cfg);
    core::BatchPlan batches = core::planBatches(
        pre, plan.points, cfg.granularity, cfg.eadrOn());

    std::map<std::uint32_t, std::uint64_t> streams;
    lint::FrontierState st(cfg.granularity, cfg.eadrOn());
    std::uint32_t cursor = 0;
    for (std::uint32_t fp : plan.points) {
        for (; cursor < fp; cursor++)
            st.apply(pre[cursor]);
        std::string key = lint::equivalenceKey(pre[fp].loc, st);
        EXPECT_EQ(lint::samplerStream(key), fnv1a(key)) << name;
        streams[fp] = fnv1a(withoutRoot(key));
    }

    std::ostringstream line;
    line << name << ' ' << model << (elide ? " sv" : " -")
         << " groups";
    for (const auto &g : batches.groups) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(streams[g.rep]));
        line << ' ' << g.rep << '@' << hex;
        for (std::uint32_t f : g.folded) {
            line << ',' << f;
            EXPECT_EQ(streams[f], streams[g.rep])
                << name << ' ' << model << " point " << f;
        }
    }
    return line.str();
}

/** Every (trace, model, elision) record, in a fixed order. */
std::vector<std::string>
allRecords()
{
    struct Source
    {
        std::string name;
        std::string workload;
        workloads::WorkloadConfig wcfg;
    };
    std::vector<Source> sources;
    for (const auto &c : bugsuite::allBugCases()) {
        // The pool-creation case runs library code from a lambda in
        // the registry, not a workload; its trace is covered by every
        // workload's own pool creation.
        if (c.workload == "pool_create")
            continue;
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = c.initOps;
        wcfg.testOps = c.testOps;
        wcfg.postOps = c.postOps;
        wcfg.roiFromStart = c.roiFromStart;
        if (c.workload == "memcached")
            wcfg.memcachedCapacity = 8;
        if (!c.id.empty())
            wcfg.bugs.enable(c.id);
        sources.push_back({c.id, c.workload, wcfg});
    }
    for (const auto &w : workloads::workloadNames()) {
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = 5;
        wcfg.testOps = 10;
        wcfg.postOps = 2;
        sources.push_back({"clean." + w, w, wcfg});
    }

    std::vector<std::string> out;
    for (const auto &s : sources) {
        for (bool elide : {false, true}) {
            trace::TraceBuffer pre = preTraceOf(s.workload, s.wcfg, elide);
            for (const char *model : {"clwb", "eadr"})
                out.push_back(recordOf(s.name, pre, model, elide));
        }
    }
    return out;
}

TEST(FrontierGolden, PartitionsAndStreamsMatchRecording)
{
    std::vector<std::string> got = allRecords();

    if (const char *path = std::getenv("XFD_GOLDEN_RECORD")) {
        std::ofstream f(path);
        for (const auto &l : got)
            f << l << '\n';
        GTEST_SKIP() << "recorded " << got.size() << " lines to " << path;
    }

    std::ifstream f(XFD_GOLDEN_FILE);
    ASSERT_TRUE(f.good()) << "missing golden file " << XFD_GOLDEN_FILE;
    std::vector<std::string> want;
    for (std::string l; std::getline(f, l);)
        want.push_back(l);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); i++) {
        // The name, model and elision prefix locate a mismatch.
        EXPECT_EQ(got[i], want[i]) << "record " << i;
    }
}

} // namespace
