#include "probe.hh"

#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <memory>
#include <set>

#include "bugsuite/registry.hh"
#include "core/failure_planner.hh"
#include "oracle/diff.hh"
#include "pm/cow.hh"
#include "pmlib/objpool.hh"
#include "trace/page_index.hh"
#include "workloads/workload.hh"
#include "xfd.hh"

namespace perfbench
{

namespace
{

using xfd::core::CampaignResult;
using xfd::core::DetectorConfig;
using xfd::core::ProgramFn;
using xfd::trace::PmRuntime;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

/**
 * @p fp with each source path cut back to its "src/" root, so the
 * digest does not depend on where the checkout lives.
 */
std::string
withoutCheckoutRoot(std::string fp)
{
    for (std::size_t p = fp.find("/src/"); p != std::string::npos;
         p = fp.find("/src/", p)) {
        std::size_t start = fp.find_last_of("|( \n", p);
        start = start == std::string::npos ? 0 : start + 1;
        fp.erase(start, p + 1 - start);
        p = start + 4;
    }
    return fp;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Span stack of one traced draw. */
class Tracer
{
  public:
    explicit Tracer(std::vector<Span> &out) : spans(out) {}

    void
    open(SpanName n)
    {
        Span s;
        s.start = nowNs();
        s.parent = stack.empty() ? -1 : stack.back();
        s.name = n;
        stack.push_back(static_cast<std::int32_t>(spans.size()));
        spans.push_back(s);
    }

    /** Close the innermost span. @return its duration in ns. */
    std::int64_t
    close()
    {
        Span &s = spans[stack.back()];
        stack.pop_back();
        s.end = nowNs();
        return s.end - s.start;
    }

  private:
    std::vector<Span> &spans;
    std::vector<std::int32_t> stack;
};

/**
 * One span over a scope, closed on exceptions too (the stages end by
 * throwing StageComplete). @p seconds, when given, receives the
 * duration.
 */
class Scope
{
  public:
    Scope(Tracer &t, SpanName n, double *seconds = nullptr)
        : tracer(t), out(seconds)
    {
        tracer.open(n);
    }
    ~Scope()
    {
        double s = static_cast<double>(tracer.close()) * 1e-9;
        if (out)
            *out += s;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer;
    double *out;
};

/** A draw's two stages, built exactly as runBugCase() builds them. */
struct Program
{
    std::shared_ptr<xfd::workloads::Workload> workload;
    ProgramFn pre;
    ProgramFn post;
};

Program
makeProgram(const Draw &d)
{
    Program p;
    xfd::workloads::WorkloadConfig wcfg;
    std::string name;
    if (d.bugCase >= 0) {
        const auto &c = xfd::bugsuite::allBugCases()[d.bugCase];
        if (c.workload == "pool_create") {
            // §6.3.2 bug 4 lives in the library, not in a workload.
            p.pre = [](PmRuntime &rt) {
                xfd::trace::RoiScope roi(rt);
                xfd::pmlib::ObjPool::create(rt, "bug4", 64);
            };
            p.post = [](PmRuntime &rt) {
                xfd::trace::RoiScope roi(rt);
                xfd::pmlib::ObjPool::open(rt, "bug4");
            };
            return p;
        }
        name = c.workload;
        wcfg.initOps = c.initOps;
        wcfg.testOps = c.testOps;
        wcfg.postOps = c.postOps;
        wcfg.roiFromStart = c.roiFromStart;
        if (name == "memcached")
            wcfg.memcachedCapacity = 8;
        if (!c.id.empty())
            wcfg.bugs.enable(c.id);
    } else {
        // xfdetect's defaults, so a draw replays as the command line
        // describe() prints.
        name = xfd::workloads::workloadNames()[d.program];
        wcfg.initOps = 5;
        wcfg.testOps = d.ops;
        wcfg.postOps = 2;
        wcfg.seed = d.seed;
    }
    p.workload = xfd::workloads::makeWorkload(name, std::move(wcfg));
    auto *w = p.workload.get();
    p.pre = [w](PmRuntime &rt) { w->pre(rt); };
    p.post = [w](PmRuntime &rt) { w->post(rt); };
    return p;
}

/**
 * The workload's campaign configuration. A bug case that needs a
 * crash-state tier gets it, as runBugCase() does, for the paths that
 * bypass runBugCase().
 */
DetectorConfig
configFor(const WorkloadSpec &w, const Draw &d)
{
    DetectorConfig cfg;
    cfg.backend = w.backend;
    cfg.elideSameValueWrites = w.elideSameValue;
    if (d.bugCase >= 0)
        cfg.crashStates = xfd::bugsuite::allBugCases()[d.bugCase].crashStates;
    return cfg;
}

void
record(const Draw &d, const CampaignResult &res, OutcomeHead &h,
       std::string &firstFinding)
{
    const auto &st = res.statistics();
    h.phaseSeconds = res.phases().total();
    h.plannedPoints = st.failurePoints + st.lintPrunedPoints;
    h.executedPoints = st.failurePoints;
    h.crashEnumerated = st.crashStatesEnumerated;
    h.crashPruned = st.crashStatesPruned;
    h.restoreBytes = st.restore.bytesCopied();
    h.preEntries = st.preTraceEntries;
    h.postEntries = st.postTraceEntries;
    h.postExecutions = st.postExecutions;
    h.findings = res.findings().size();
    std::string fp = withoutCheckoutRoot(res.fingerprint());
    h.fingerprintHash = fnv1a(fp);
    firstFinding = fp.substr(0, fp.find('\n'));
    if (d.bugCase >= 0) {
        h.expectedMissing = !xfd::bugsuite::detected(
            xfd::bugsuite::allBugCases()[d.bugCase], res);
    }
}

void
record(const Draw &d, const xfd::oracle::DiffReport &rep, OutcomeHead &h,
       std::string &firstFinding)
{
    record(d, rep.detector, h, firstFinding);
    h.oracleStates = rep.statesEnumerated;
    h.oraclePoints = rep.failurePoints;
    h.oracleAgreements = rep.agreements;
    h.oracleBroken = !rep.clean() || rep.agreementRate() < 1.0;
}

/** Records failure-point gaps and the pre-trace; CampaignHooks v2. */
class Hooks final : public xfd::core::CampaignHooks
{
    static_assert(version == 2, "written against CampaignHooks v2");

  public:
    Hooks(Tracer &t, Outcome &o) : tracer(t), out(o) {}

    void
    onPreTraceReady(const xfd::trace::TraceBuffer &buf) override
    {
        Scope s(tracer, SpanName::Hook, &out.head.hookSeconds);
        pre = buf;
        havePre = true;
    }

    void
    onFailurePoint(std::uint32_t, const xfd::core::BugSink &) override
    {
        std::int64_t t = nowNs();
        if (lastPoint) {
            double gap = static_cast<double>(t - lastPoint) * 1e-3;
            out.pointUs.push_back(static_cast<float>(gap));
            out.backendUs.push_back(
                static_cast<float>(gap - recoverySincePoint * 1e6));
        }
        lastPoint = t;
        recoverySincePoint = 0;
        out.head.hookSeconds += secondsBetween(t, nowNs());
    }

    /** Seconds of post lambda since the last failure point. */
    double recoverySincePoint = 0;
    xfd::trace::TraceBuffer pre;
    bool havePre = false;

  private:
    Tracer &tracer;
    Outcome &out;
    std::int64_t lastPoint = 0;
};

/** One timed call into the public API, nothing attached. */
void
runUntraced(const WorkloadSpec &w, const Draw &d, Outcome &o)
{
    OutcomeHead &h = o.head;
    DetectorConfig cfg = configFor(w, d);
    if (w.differential) {
        Program prog = makeProgram(d);
        xfd::pm::PmPool pool(d.poolBytes);
        xfd::oracle::DiffConfig dc;
        dc.detector = cfg;
        std::int64_t t0 = nowNs();
        auto rep =
            xfd::oracle::runDifferentialCampaign(pool, prog.pre, prog.post, dc);
        h.wallSeconds = secondsBetween(t0, nowNs());
        record(d, rep, h, o.firstFinding);
    } else if (d.bugCase >= 0) {
        const auto &c = xfd::bugsuite::allBugCases()[d.bugCase];
        std::int64_t t0 = nowNs();
        auto res = xfd::bugsuite::runBugCase(c, cfg);
        h.wallSeconds = secondsBetween(t0, nowNs());
        record(d, res, h, o.firstFinding);
    } else {
        Program prog = makeProgram(d);
        std::int64_t t0 = nowNs();
        auto res = xfd::Campaign::forProgram(prog.pre, prog.post)
                       .poolSize(d.poolBytes)
                       .config(cfg)
                       .threads(1)
                       .run();
        h.wallSeconds = secondsBetween(t0, nowNs());
        record(d, res, h, o.firstFinding);
    }
}

/** The traced campaign plus the layer calls repeated outside it. */
void
runTraced(const WorkloadSpec &w, const Draw &d, Outcome &o)
{
    // The pool-creation bug's stages are lambdas in the registry; a
    // copy here would report its own source lines in the finding, so
    // that case runs through runBugCase() untraced.
    if (!w.differential && d.bugCase >= 0 &&
        xfd::bugsuite::allBugCases()[d.bugCase].workload == "pool_create") {
        runUntraced(w, d, o);
        return;
    }
    OutcomeHead &h = o.head;
    Tracer tracer(o.spans);
    Scope root(tracer, SpanName::Campaign);
    Program prog = makeProgram(d);
    DetectorConfig cfg = configFor(w, d);

    std::unique_ptr<xfd::pm::PmPool> pool;
    {
        Scope s(tracer, SpanName::PoolCreate, &h.poolCreateSeconds);
        pool = std::make_unique<xfd::pm::PmPool>(d.poolBytes);
    }
    {
        xfd::pm::CowImage initial(pool->snapshot());
        std::set<std::uint32_t> pages;
        Scope s(tracer, SpanName::PoolScan, &h.poolScanSeconds);
        initial.collectNonZeroPages(cfg.deltaPageSize, pages);
    }

    Hooks hooks(tracer, o);
    xfd::core::CampaignObserver observer;
    observer.timeline.setEnabled(false);
    observer.hooks = &hooks;
    ProgramFn pre = [&](PmRuntime &rt) {
        Scope s(tracer, SpanName::Capture, &h.captureSeconds);
        prog.pre(rt);
    };
    ProgramFn post = [&](PmRuntime &rt) {
        double sec = 0;
        // Destroyed after the span below closes, so sec is final.
        struct Done
        {
            double &sec;
            Hooks &hooks;
            std::vector<float> &us;
            ~Done()
            {
                hooks.recoverySincePoint += sec;
                us.push_back(static_cast<float>(sec * 1e6));
            }
        } done{sec, hooks, o.recoveryUs};
        Scope s(tracer, SpanName::Recovery, &sec);
        prog.post(rt);
    };

    if (w.differential) {
        xfd::oracle::DiffConfig dc;
        dc.detector = cfg;
        dc.observer = &observer;
        xfd::oracle::DiffReport rep;
        {
            Scope s(tracer, SpanName::OracleRun);
            std::int64_t t0 = nowNs();
            rep = xfd::oracle::runDifferentialCampaign(*pool, pre, post, dc);
            h.wallSeconds = secondsBetween(t0, nowNs());
        }
        record(d, rep, h, o.firstFinding);
    } else {
        CampaignResult res;
        {
            Scope s(tracer, SpanName::CoreRun);
            std::int64_t t0 = nowNs();
            res = xfd::Campaign::forProgram(pre, post)
                      .config(cfg)
                      .threads(1)
                      .onPool(*pool)
                      .observer(&observer)
                      .run();
            // Untraced, Campaign::run() creates the pool itself.
            h.wallSeconds = secondsBetween(t0, nowNs()) + h.poolCreateSeconds;
        }
        record(d, res, h, o.firstFinding);
    }

    if (!hooks.havePre)
        return;
    {
        Scope s(tracer, SpanName::DeltaIndex, &h.deltaIndexSeconds);
        xfd::trace::buildDeltaStore(hooks.pre, cfg.deltaPageSize,
                                    pool->range());
    }
    xfd::core::FailurePlan plan;
    {
        Scope s(tracer, SpanName::Plan, &h.planSeconds);
        plan = xfd::core::planFailurePoints(hooks.pre, cfg);
    }
    // The frontier signature behind batching also groups crash
    // states; campaigns that use neither never pay for it.
    if (cfg.batchingOn() || cfg.crashStatesOn()) {
        Scope s(tracer, SpanName::BatchPlan, &h.batchPlanSeconds);
        auto batches = xfd::core::planBatches(
            hooks.pre, plan.points, cfg.granularity, cfg.eadrOn());
        h.batchGroups = batches.groups.size();
        h.batchInput = plan.points.size();
    }
}

} // namespace

const char *
spanName(SpanName n)
{
    static const char *const names[] = {
        "bench.campaign",  "pm.pool_create", "pm.pool_scan",
        "core.run",        "oracle.run",     "trace.capture",
        "workloads.recovery", "bench.hook",  "pm.delta_index",
        "core.plan",       "lint.batch_plan",
    };
    static_assert(sizeof names / sizeof names[0] ==
                  static_cast<std::size_t>(SpanName::Count));
    return names[static_cast<std::size_t>(n)];
}

Outcome
runDraw(const WorkloadSpec &w, const Draw &d, bool traced)
{
    Outcome o;
    try {
        if (traced)
            runTraced(w, d, o);
        else
            runUntraced(w, d, o);
    } catch (const std::exception &e) {
        o.head.threw = true;
        o.firstFinding = e.what();
    } catch (...) {
        o.head.threw = true;
        o.firstFinding = "unknown exception";
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    o.head.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return o;
}

} // namespace perfbench
