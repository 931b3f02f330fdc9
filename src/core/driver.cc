#include "core/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <latch>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common/logging.hh"
#include "core/campaign_metrics.hh"
#include "lint/frontier.hh"
#include "trace/buffer.hh"
#include "trace/candidates.hh"
#include "trace/iter.hh"
#include "trace/page_index.hh"

namespace xfd::core
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now() - t0).count();
}

/**
 * The restore reference (XFD_DELTA_VALIDATE=1): after a page restore
 * the exec pool must equal @p src byte for byte (one full-image
 * memcmp). A mismatch means a mutation path missed markDirty() or a
 * page set missed a changed page.
 */
void
validateRestore(const pm::CowImage &src, pm::PmPool &pool,
                std::size_t pageSize, const char *what, std::uint32_t fp)
{
    static const bool validate =
        std::getenv("XFD_DELTA_VALIDATE") != nullptr;
    if (!validate)
        return;
    std::size_t off = src.firstMismatch(pool.data());
    if (off != SIZE_MAX) {
        panic("%s diverged at fp %u: pool offset %#zx (page %zu) "
              "pool=%02x",
              what, fp, off, off / pageSize, pool.data()[off]);
    }
}

} // namespace

Driver::PreCursor::PreCursor(AddrRange range,
                             const DetectorConfig &cfg,
                             const pm::CowImage &initial, bool cellModel,
                             const pm::ImageDeltaStore &delta)
    : shadow(range, cfg), image(initial), delta(delta)
{
    if (!cellModel)
        return;
    durable = initial;
    cells = std::make_unique<lint::FrontierState>(cfg.granularity,
                                                  cfg.eadrOn());
    // The oracle's persistCellBytes: a decided cell's content is
    // final, so the durable image takes its bytes from the working
    // image (already past the entry) and partial candidates build on
    // them.
    unsigned gran = cfg.granularity;
    cells->onDecided([this, gran](Addr a) {
        durable.copyFrom(image, a, gran);
        durablePages.insert(this->delta.pageOf(a));
    });
}

Driver::PreCursor::~PreCursor() = default;

/**
 * Campaign-global crash-state context: parsed --crash-states knobs
 * plus the equivalence-class pruning set all workers share.
 */
struct Driver::CrashStateCtx
{
    bool exhaustive = false;
    std::size_t sampleCount = 0;
    std::mutex lock;
    /**
     * Equivalence keys seen so far, each stored once (a key carries
     * a whole frontier signature, megabytes on large pools) -> its id.
     */
    std::unordered_map<std::string, std::uint32_t> keyIds;
    /**
     * (key id, frontier size, mask) -> failure point whose run
     * represents that candidate.
     */
    std::map<std::tuple<std::uint32_t, std::size_t, trace::SubsetMask>,
             std::uint32_t>
        seen;
};

std::size_t
CampaignResult::count(BugType t) const
{
    std::size_t n = 0;
    for (const auto &b : reports) {
        if (b.type == t)
            n++;
    }
    return n;
}

std::string
CampaignResult::summary() const
{
    const CampaignStats &st = campaignStats;
    std::string batched;
    if (st.batchGroups) {
        batched = strprintf(", batched %zu groups (+%zu folded)",
                            st.batchGroups, st.lintPrunedPoints);
    } else if (st.lintPrunedPoints) {
        batched =
            strprintf(", lint-pruned %zu", st.lintPrunedPoints);
    }
    std::string s = strprintf(
        "=== XFDetector report: %zu finding(s) ===\n"
        "failure points: %zu (candidates %zu, elided %zu%s), "
        "post-failure executions: %zu\n"
        "time: pre %.3fs, post %.3fs, backend %.3fs\n",
        reports.size(), st.failurePoints, st.orderingCandidates,
        st.elidedPoints, batched.c_str(), st.postExecutions,
        st.preSeconds, st.postSeconds, st.backendSeconds);
    if (st.crashStatesExplored || st.crashStatesPruned) {
        s += strprintf(
            "crash states: %zu partial candidate(s) explored "
            "(+%zu pruned as equivalent), partial-image findings: "
            "%zu\n",
            st.crashStatesExplored, st.crashStatesPruned,
            partialImageFindings());
    }
    for (const auto &b : reports)
        s += b.str() + "\n";
    return s;
}

std::size_t
CampaignResult::partialImageFindings() const
{
    std::size_t n = 0;
    for (const auto &b : reports) {
        if (b.persistedMask.size() && !b.persistedMask.all())
            n++;
    }
    return runConfig.crashStatesOn() ? n : 0;
}

std::string
CampaignResult::fingerprint() const
{
    // One line per finding, sorted: the same identity the test
    // harness and the CI batch-smoke job compare. Deliberately
    // excludes occurrence counts, failure-point seqs and provenance —
    // those legitimately differ between serial, parallel and batched
    // schedules; the finding *set* must not.
    std::vector<std::string> lines;
    lines.reserve(reports.size());
    for (const auto &b : reports) {
        lines.push_back(strprintf("%s|%s|%s|%s", bugTypeId(b.type),
                                  b.reader.str().c_str(),
                                  b.writer.str().c_str(),
                                  b.note.c_str()));
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const auto &l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

Driver::Driver(pm::PmPool &p, DetectorConfig c) : pool(p), cfg(c)
{
}

double
Driver::runBaseline(const ProgramFn &pre, bool traced)
{
    trace::TraceBuffer buf;
    trace::PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    rt.setTracing(traced);
    rt.setBatching(true);
    auto t0 = std::chrono::steady_clock::now();
    try {
        pre(rt);
    } catch (const trace::StageComplete &) {
    }
    return secondsSince(t0);
}

void
Driver::advanceShadow(PreCursor &cur, const trace::TraceBuffer &pre,
                      std::uint32_t to, BugSink *perf_sink)
{
    using trace::Op;

    ShadowPM &shadow = cur.shadow;
    for (std::uint32_t &i = cur.shadowCursor; i < to; i++) {
        const auto &e = pre[i];
        bool detectable = e.has(trace::flagInRoi) &&
                          !e.has(trace::flagInternal) &&
                          !e.has(trace::flagSkipDetection);
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite:
            if (!e.has(trace::flagImageOnly)) {
                shadow.preWrite(e.addr, e.size, e.seq,
                                e.op == Op::NtWrite);
            }
            break;
          case Op::Clwb:
          case Op::ClflushOpt:
          case Op::Clflush:
            if (shadow.preFlush(e.addr, e.seq,
                                e.has(trace::flagRepair)) &&
                detectable &&
                perf_sink && cfg.reportPerformanceBugs) {
                BugReport r;
                r.type = BugType::Performance;
                r.addr = e.addr;
                r.size = e.size;
                r.reader = e.loc;
                r.note = "redundant writeback: no modified data in line";
                perf_sink->report(std::move(r));
            }
            break;
          case Op::Sfence:
          case Op::Mfence:
            shadow.preFence();
            break;
          case Op::Alloc:
            shadow.preAlloc(e.addr, e.size, e.seq);
            break;
          case Op::Free:
            shadow.preFree(e.addr, e.size);
            break;
          case Op::CommitVar:
            shadow.registerCommitVar(e.addr, e.size);
            break;
          case Op::CommitRange:
            shadow.registerCommitRange(e.aux, e.addr, e.size);
            break;
          case Op::TxAdd: {
            AddrRange r{e.addr, e.addr + e.size};
            bool duplicate = false;
            for (const auto &prev : cur.openTxAdds) {
                if (prev.begin <= r.begin && r.end <= prev.end) {
                    duplicate = true;
                    break;
                }
            }
            if (duplicate && detectable && perf_sink &&
                cfg.reportPerformanceBugs) {
                BugReport br;
                br.type = BugType::Performance;
                br.addr = e.addr;
                br.size = e.size;
                br.reader = e.loc;
                br.note = "duplicated TX_ADD of the same PM object";
                perf_sink->report(std::move(br));
            }
            if (!duplicate)
                cur.openTxAdds.push_back(r);
            break;
          }
          case Op::LibCall:
            if (trace::isTxBoundary(e))
                cur.openTxAdds.clear();
            break;
          default:
            break;
        }
    }
}

void
Driver::advanceImage(PreCursor &cur, const trace::TraceBuffer &pre,
                     std::uint32_t to)
{
    using trace::Op;

    const bool eadr = cfg.eadrOn();
    for (std::uint32_t &i = cur.imageCursor; i < to; i++) {
        const auto &e = pre[i];
        if (e.isWrite()) {
            cur.image.applyWrite(e.addr, e.data.data(), e.data.size());
            if (cur.cells && e.has(trace::flagImageOnly) &&
                !e.data.empty()) {
                // Allocator zero-fill and friends: image data with no
                // persistence semantics. Both images take it at once,
                // so it is never part of any frontier.
                cur.durable.applyWrite(e.addr, e.data.data(),
                                       e.data.size());
                Addr end = e.addr + e.data.size() - 1;
                std::size_t ps = cur.delta.pageSize();
                for (Addr a = e.addr; a <= end; a = (a / ps + 1) * ps)
                    cur.durablePages.insert(cur.delta.pageOf(a));
            }
        }
        // The cell model sees the entry after the working image does:
        // every cell it decides copies its bytes from there.
        if (cur.cells)
            cur.cells->apply(e);
        if (e.isWrite()) {
            // Flush-free persistency: the store is durable on arrival,
            // so it is never part of a write frontier (provenance stays
            // empty).
            if (eadr)
                continue;
            Addr last = lineBase(e.addr + (e.size ? e.size - 1 : 0));
            for (Addr l = lineBase(e.addr); l <= last;
                 l += cacheLineSize) {
                // Frontier bookkeeping (provenance): the write is
                // in flight until a fence lands its line.
                cur.inflight[l].push_back(e.seq);
                if (e.op == Op::NtWrite)
                    cur.inflightPending.insert(l);
            }
        } else if (e.isFlush()) {
            // Flushing moves the line toward durability; it lands at
            // the next fence.
            if (cur.inflight.count(e.addr))
                cur.inflightPending.insert(e.addr);
        } else if (e.isFence()) {
            for (Addr l : cur.inflightPending)
                cur.inflight.erase(l);
            cur.inflightPending.clear();
        }
    }
}

void
Driver::replayPost(PreCursor &cur, const trace::TraceBuffer &pre,
                   const trace::TraceBuffer &post, std::uint32_t fp,
                   BugSink &sink, bool suppressSemantic)
{
    using trace::Op;

    ShadowPM &shadow = cur.shadow;
    shadow.beginPostReplay();
    for (const auto &e : post) {
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite:
            // Post-failure writes overwrite the old data; reading the
            // location afterwards is unconditionally fine (§5.4).
            shadow.postWrite(e.addr, e.size);
            break;
          case Op::Alloc:
            shadow.postWrite(e.addr, e.size);
            break;
          case Op::CommitVar:
            shadow.registerCommitVar(e.addr, e.size);
            break;
          case Op::CommitRange:
            shadow.registerCommitRange(e.aux, e.addr, e.size);
            break;
          case Op::Read: {
            if (!e.has(trace::flagInRoi) || e.has(trace::flagInternal) ||
                e.has(trace::flagSkipDetection)) {
                break;
            }
            ReadCheckResult res = shadow.checkPostRead(e.addr, e.size);
            if (res.verdict != ReadCheck::Race &&
                res.verdict != ReadCheck::SemanticBug) {
                break;
            }
            if (res.verdict == ReadCheck::SemanticBug &&
                suppressSemantic) {
                // The commit-variable timestamps assume recovery
                // observes the *latest* commit write, which only the
                // paper's all-updates image guarantees; under the
                // durable image — or a partial candidate that dropped
                // a commit write — the recovery may be acting on an
                // older committed version, so the semantic verdict is
                // not sound here.
                break;
            }
            BugReport r;
            r.type = res.verdict == ReadCheck::Race
                         ? BugType::CrossFailureRace
                         : BugType::CrossFailureSemantic;
            r.addr = res.addr;
            r.size = e.size;
            r.reader = e.loc;
            if (res.writerSeq != ReadCheckResult::noSeq)
                r.writer = pre[res.writerSeq].loc;
            r.failurePoint = fp;
            if (res.uninitialized)
                r.note = "location allocated but never initialized";
            else if (res.verdict == ReadCheck::SemanticBug)
                r.note = res.stale
                             ? "stale: last modified before the pre-last "
                               "commit write"
                             : "uncommitted: modified after the last "
                               "commit write";
            sink.report(std::move(r));
            break;
          }
          default:
            break;
        }
    }
    shadow.endPostReplay();
}

void
Driver::handleFailurePoint(PreCursor &cur, pm::PmPool &exec_pool,
                           const trace::TraceBuffer &pre,
                           const ProgramFn &post, std::uint32_t fp,
                           BugSink &sink, CampaignStats &stats,
                           const WorkerObs &wobs)
{
    obs::Timeline *tl = wobs.timeline;
    obs::SpanScope fp_span(tl, tl ? strprintf("fp#%u", fp)
                                  : std::string(),
                           "fp", wobs.track);

    // Findings collect in a local sink first, for two reasons: the
    // per-failure-point hook must see a finding's recurrence at later
    // points (the worker sink dedups across points), and provenance
    // (this point's write frontier) is annotated onto exactly the
    // findings this point produced before they merge.
    BugSink local;

    // The durable tier runs recovery on the cell model's durable
    // image (the all-zero mask) in place of the anchor. Under eADR
    // there is no cell model: every store is durable on arrival, so
    // the working image already is that image.
    const bool durable_tier = cfg.durableTier();
    const bool from_durable = durable_tier && cur.cells;

    auto tb0 = std::chrono::steady_clock::now();
    {
        obs::SpanScope span(tl, "reconstruct", "backend", wobs.track);
        // Performance bugs are collected by the dedicated full-trace
        // advance, not here (workers would double-report them).
        {
            obs::SpanScope s2(tl, "advance-shadow", "backend",
                              wobs.track);
            advanceShadow(cur, pre, fp, nullptr);
        }
        {
            obs::SpanScope s2(tl, "advance-image", "backend",
                              wobs.track);
            advanceImage(cur, pre, fp);
        }
        obs::SpanScope s3(tl, "restore-pool", "backend", wobs.track);

        const pm::CowImage &src = from_durable ? cur.durable : cur.image;
        bool checkpoint_due =
            cfg.deltaCheckpointInterval != 0 &&
            cur.sinceCheckpoint >= cfg.deltaCheckpointInterval;
        if (!cur.execSynced || checkpoint_due) {
            // Chunk start or checkpoint cadence: resync from scratch.
            // A fresh pool is all zeros and any working image can
            // differ from zero only where the write log landed or the
            // initial snapshot was nonzero (chunkSyncPages), so
            // restoring that set plus the exec pool's own dirt is
            // byte-equivalent to a full O(pool) copy.
            std::set<std::uint32_t> pages = *chunkSyncPages;
            exec_pool.drainDirtyPages(pages);
            pm::restorePages(src, exec_pool, cur.delta.pageSize(),
                             pages, stats.restore);
            stats.restore.syncRestores++;
            cur.durablePages.clear();
            cur.execSynced = true;
            cur.sinceCheckpoint = 0;
        } else {
            // The exec pool matches the source image as of the
            // previous restore except on (a) pages the image gained
            // since, and (b) pages the previous post-failure
            // execution soiled. Copy exactly that union.
            std::set<std::uint32_t> pages;
            if (from_durable)
                pages.swap(cur.durablePages);
            else
                cur.delta.collectPages(cur.lastRestoredSeq, fp, pages);
            exec_pool.drainDirtyPages(pages);
            pm::restorePages(src, exec_pool, cur.delta.pageSize(),
                             pages, stats.restore);
            cur.sinceCheckpoint++;
        }
        cur.lastRestoredSeq = fp;
        validateRestore(src, exec_pool, cur.delta.pageSize(),
                        "delta restore", fp);
    }
    // The phase entry reuses the exact interval that feeds
    // backendSeconds, so restore + classify attribute the backend
    // identically in a serial campaign.
    double restore_s = secondsSince(tb0);
    stats.backendSeconds += restore_s;
    stats.phases.note(obs::Phase::Restore, restore_s);

    // This point's write frontier: the in-flight (not durably
    // persisted) write seqs as of fp, in ascending order — the
    // causal candidates for anything the post-failure stage trips
    // over. Captured before the post-failure run dirties anything.
    // Campaigns with a cell model take it from there so the bit
    // order of every candidate mask matches the oracle's exactly;
    // otherwise the line-granular bookkeeping supplies it.
    std::vector<std::uint32_t> frontier;
    if (cur.cells) {
        std::set<std::uint32_t> seqs;
        cur.cells->forEachUndecided(
            [&](Addr, const lint::FrontierCell &c) {
                seqs.insert(c.tail.begin(), c.tail.end());
            });
        frontier.assign(seqs.begin(), seqs.end());
    } else {
        for (const auto &ent : cur.inflight)
            frontier.insert(frontier.end(), ent.second.begin(),
                            ent.second.end());
        std::sort(frontier.begin(), frontier.end());
        frontier.erase(std::unique(frontier.begin(), frontier.end()),
                       frontier.end());
    }

    // Which frontier writes the image contained: all of them under
    // the paper's footnote-3 image, none under the durable tier,
    // where in flight means absent. The durable image may show
    // recovery an older commit epoch, so commit-window verdicts are
    // not sound on it.
    trace::SubsetMask mask(frontier.size());
    if (!durable_tier)
        mask.setAll();
    double classify_s = runCandidate(cur, exec_pool, pre, post, fp,
                                     frontier, mask, durable_tier,
                                     local, stats, wobs);

    if (wobs.live) {
        wobs.live->count("failure_points");
        wobs.live->count("restore_us",
                         static_cast<std::uint64_t>(restore_s * 1e6));
        wobs.live->count("classify_us",
                         static_cast<std::uint64_t>(classify_s * 1e6));
    }

    // Partial crash-state exploration rides after the anchor so its
    // findings merge into the same per-point sink (each annotated
    // with its own persisted mask) before the hook fires.
    if (csCtx && cur.cells)
        exploreCrashStates(cur, exec_pool, pre, post, fp, frontier,
                           local, stats, wobs);

    if (observer)
        observer->notifyFailurePoint(fp, local);
    sink.merge(local);
}

double
Driver::runCandidate(PreCursor &cur, pm::PmPool &exec_pool,
                     const trace::TraceBuffer &pre,
                     const ProgramFn &post, std::uint32_t fp,
                     const std::vector<std::uint32_t> &frontier,
                     const trace::SubsetMask &mask,
                     bool suppressSemantic, BugSink &out,
                     CampaignStats &stats, const WorkerObs &wobs)
{
    obs::Timeline *tl = wobs.timeline;
    BugSink found;
    trace::TraceBuffer post_trace;
    {
        obs::SpanScope span(tl, "post-exec", "post", wobs.track);
        trace::PmRuntime rt(exec_pool, post_trace,
                            trace::Stage::PostFailure);
        rt.setEntryCap(1u << 20);
        // Ring-buffered emission; no same-value elision post-failure
        // (recovery rewriting identical bytes still re-establishes
        // consistency, so every post write must be traced).
        rt.setBatching(true);
        auto t0 = std::chrono::steady_clock::now();
        try {
            post(rt);
        } catch (const trace::StageComplete &) {
        } catch (const trace::PostFailureAbort &abort) {
            BugReport r;
            r.type = BugType::RecoveryFailure;
            r.reader = abort.loc;
            r.writer = pre[fp].loc;
            r.failurePoint = fp;
            r.note = abort.reason;
            found.report(std::move(r));
        } catch (const pm::BadPmAccess &bad) {
            // The post-failure stage dereferenced a corrupted
            // persistent pointer — the emulated equivalent of the
            // resumption segfault in the paper's Figure 1.
            BugReport r;
            r.type = BugType::RecoveryFailure;
            r.addr = bad.addr;
            r.size = static_cast<std::uint32_t>(bad.size);
            r.writer = pre[fp].loc;
            r.failurePoint = fp;
            r.note = strprintf(
                "post-failure crash: wild PM access at %#llx",
                static_cast<unsigned long long>(bad.addr));
            found.report(std::move(r));
        }
        rt.setBatching(false); // flush the ring before reading counts
        double post_s = secondsSince(t0);
        stats.postSeconds += post_s;
        stats.phases.note(obs::Phase::RecoveryExec, post_s);
        if (wobs.postLatency)
            wobs.postLatency->push_back(post_s);
        if (wobs.postOps) {
            const auto &ops = rt.opCounts();
            for (std::size_t i = 0; i < ops.size(); i++)
                (*wobs.postOps)[i] += ops[i];
        }
        if (wobs.live)
            wobs.live->sample("post_exec_latency_us", post_s * 1e6);
    }
    stats.postExecutions++;
    stats.postTraceEntries += post_trace.size();

    auto tb1 = std::chrono::steady_clock::now();
    {
        obs::SpanScope span(tl, "replay", "backend", wobs.track);
        replayPost(cur, pre, post_trace, fp, found, suppressSemantic);
    }
    double classify_s = secondsSince(tb1);
    stats.backendSeconds += classify_s;
    stats.phases.note(obs::Phase::Classify, classify_s);

    found.annotate([&](BugReport &b) {
        b.frontierSeqs = frontier;
        b.persistedMask = mask;
    });

    if (tl) {
        for (const auto &b : found.bugs()) {
            std::vector<std::pair<std::string, std::string>> args;
            args.emplace_back("type", bugTypeId(b.type));
            args.emplace_back("reader", b.reader.str());
            args.emplace_back("writer", b.writer.str());
            args.emplace_back("failure_point", strprintf("%u", fp));
            std::string seqs;
            for (std::uint32_t s : frontier) {
                if (!seqs.empty())
                    seqs += ',';
                seqs += strprintf("%u", s);
            }
            args.emplace_back("frontier", std::move(seqs));
            args.emplace_back("persisted_mask", mask.toHex());
            tl->recordInstant(strprintf("finding@fp#%u", fp), "finding",
                              wobs.track, tl->nowUs(), std::move(args));
        }
    }
    out.merge(found);
    return classify_s;
}

void
Driver::exploreCrashStates(PreCursor &cur, pm::PmPool &exec_pool,
                           const trace::TraceBuffer &pre,
                           const ProgramFn &post, std::uint32_t fp,
                           const std::vector<std::uint32_t> &frontier,
                           BugSink &local, CampaignStats &stats,
                           const WorkerObs &wobs)
{
    if (frontier.empty())
        return;
    lint::FrontierState &cells = *cur.cells;
    const unsigned gran = cfg.granularity;

    // Frontier events + per-cell prefix chains (in address order)
    // from the cell model — the identical inputs the oracle derives,
    // so enumeration agrees with it candidate for candidate — and the
    // pages of the cells they leave undecided.
    std::vector<trace::FrontierEvent> events;
    events.reserve(frontier.size());
    std::map<std::uint32_t, std::size_t> bitOf;
    for (std::uint32_t s : frontier) {
        bitOf[s] = events.size();
        events.push_back(trace::FrontierEvent{s, pre[s].addr,
                                              pre[s].size});
    }
    std::size_t k = events.size();
    std::vector<std::vector<std::size_t>> chains;
    std::set<std::uint32_t> undecided_pages;
    cells.forEachUndecided([&](Addr a, const lint::FrontierCell &c) {
        std::vector<std::size_t> chain;
        chain.reserve(c.tail.size());
        for (std::uint32_t s : c.tail)
            chain.push_back(bitOf.at(s));
        chains.push_back(std::move(chain));
        undecided_pages.insert(cur.delta.pageOf(a));
    });
    trace::CandidateSet cset(std::move(events), std::move(chains));
    const auto &frontier_ev = cset.frontier();

    // Candidate equivalence class: ordering-point source location +
    // lint frontier signature — the identity --backend=batched folds
    // failure points by. It keys both the sampler stream (equivalent
    // points sample identical mask sequences, keeping delta and
    // batched schedules fingerprint-identical) and the campaign-global
    // pruning set.
    std::string group = lint::equivalenceKey(pre[fp].loc, cells);
    std::uint64_t stream = lint::samplerStream(group);

    trace::CandidateSet::EnumerateOptions eopt;
    eopt.exhaustive = csCtx->exhaustive;
    eopt.frontierLimit = cfg.oracleFrontierLimit;
    eopt.sampleCount = csCtx->sampleCount;
    eopt.seed = cfg.crashStatesSeed;
    eopt.stream = stream;
    auto en = cset.enumerate(eopt);
    if (en.masks.size() <= 1)
        return;
    stats.crashStatesEnumerated += en.masks.size() - 1;

    obs::Timeline *tl = wobs.timeline;
    obs::SpanScope span(tl,
                        tl ? strprintf("crash-states@fp#%u", fp)
                           : std::string(),
                        "crash-states", wobs.track);

    std::uint32_t group_id;
    {
        std::lock_guard<std::mutex> lock(csCtx->lock);
        group_id = csCtx->keyIds
                       .emplace(std::move(group),
                                static_cast<std::uint32_t>(
                                    csCtx->keyIds.size()))
                       .first->second;
    }
    bool first_restore = true;
    std::set<std::uint32_t> touched;
    for (std::size_t ci = 1; ci < en.masks.size(); ci++) {
        const trace::SubsetMask &mask = en.masks[ci];
        {
            // Structurally identical candidates execute once per
            // campaign: recovery is a function of the crash image,
            // which this key determines up to batching equivalence.
            std::lock_guard<std::mutex> lock(csCtx->lock);
            auto [it, fresh] =
                csCtx->seen.emplace(std::tuple(group_id, k, mask), fp);
            if (!fresh) {
                stats.crashStatesPruned++;
                stats.crashPruned.push_back(
                    {fp, it->second, mask.toHex()});
                continue;
            }
        }
        stats.crashStatesExplored++;

        auto tb0 = std::chrono::steady_clock::now();
        // Materialize: durable image + masked frontier events. The
        // pool holds the previous run's aftermath; restore only what
        // can differ from durable — the pool's own dirt plus, before
        // the first candidate, the pages of undecided cells (the only
        // places the anchor image diverges from durable).
        std::set<std::uint32_t> pages;
        if (first_restore)
            pages.swap(undecided_pages);
        first_restore = false;
        exec_pool.drainDirtyPages(pages);
        pm::restorePages(cur.durable, exec_pool, cur.delta.pageSize(),
                         pages, stats.restore);
        touched.insert(pages.begin(), pages.end());
        validateRestore(cur.durable, exec_pool, cur.delta.pageSize(),
                        "crash-state candidate restore", fp);

        // Apply the persisted subset in ascending seq order; only
        // cells still carrying the event are undecided (mirrors the
        // oracle's applyMask byte for byte). Payload-elided same-value
        // writes (empty data) have nothing to materialize.
        for (std::size_t b = 0; b < k; b++) {
            if (!mask.test(b))
                continue;
            const auto &e = pre[frontier_ev[b].seq];
            if (e.size == 0 || e.data.empty())
                continue;
            Addr end = e.addr + e.size;
            for (Addr cell = e.addr / gran * gran; cell < end;
                 cell += gran) {
                const lint::FrontierCell *c = cells.cellAt(cell);
                if (!c || std::find(c->tail.begin(), c->tail.end(),
                                    e.seq) == c->tail.end()) {
                    continue;
                }
                Addr lo = std::max(cell, e.addr);
                Addr hi = std::min(cell + gran, end);
                std::size_t len = hi - lo;
                std::memcpy(exec_pool.data() +
                                (lo - exec_pool.base()),
                            e.data.data() + (lo - e.addr), len);
                exec_pool.markDirty(lo, len);
            }
        }
        double restore_s = secondsSince(tb0);
        stats.backendSeconds += restore_s;
        stats.phases.note(obs::Phase::Restore, restore_s);

        // A candidate that drops a commit-variable write shows
        // recovery the previous committed epoch: commit-window
        // (condition (3)) verdicts on it describe a legitimate older
        // state, not a bug.
        bool dropped_commit = false;
        for (std::size_t b = 0; b < k && !dropped_commit; b++) {
            dropped_commit =
                !mask.test(b) &&
                cells.overlapsCommitVar(
                    {frontier_ev[b].addr,
                     frontier_ev[b].addr + frontier_ev[b].size});
        }
        runCandidate(cur, exec_pool, pre, post, fp, frontier, mask,
                     dropped_commit, local, stats, wobs);
        if (wobs.live)
            wobs.live->count("crash_candidates");
    }
    // Pages restored toward durable hold stale bytes relative to the
    // working image; re-dirty them so the next anchor restore
    // re-copies them (XFD_DELTA_VALIDATE holds across the mix).
    std::size_t ps = cur.delta.pageSize();
    for (std::uint32_t page : touched)
        exec_pool.markDirty(exec_pool.base() + static_cast<Addr>(page) * ps,
                            ps);
}

CampaignResult
Driver::run(const ProgramFn &pre, const ProgramFn &post)
{
    return runParallel(pre, post, 1);
}

CampaignResult
Driver::runParallel(const ProgramFn &pre, const ProgramFn &post,
                    unsigned threads)
{
    if (threads == 0)
        threads = 1;
    CampaignResult result;
    result.runConfig = cfg;
    CampaignStats &totals = result.campaignStats;
    totals.threads = threads;

    CrashStateCtx cs_ctx;
    if (cfg.crashStatesOn() && !cfg.eadrOn()) {
        bool exhaustive = false;
        std::size_t n = 0;
        if (!DetectorConfig::parseCrashStates(cfg.crashStates,
                                              exhaustive, n)) {
            fatal("bad --crash-states mode \"%s\" (expected anchor, "
                  "durable, sample:<n> or exhaustive)",
                  cfg.crashStates.c_str());
        }
        cs_ctx.exhaustive = exhaustive;
        // Exhaustive mode still samples frontiers beyond the
        // --oracle-frontier bound; match the oracle's fallback width.
        cs_ctx.sampleCount = n ? n : 64;
        csCtx = &cs_ctx;
    }

    obs::Timeline *tl =
        observer && observer->timeline.enabled() ? &observer->timeline
                                                 : nullptr;
    // The live registry costs one atomic load here; campaigns without
    // a live output (--live/--live-port/--live-jsonl) never touch it
    // again.
    obs::LiveMetrics *live =
        observer && observer->live.enabled() ? &observer->live
                                             : nullptr;

    // The campaign-start snapshot: one O(pool) copy into CoW pages;
    // every cursor's working/durable image forks it for O(pages)
    // pointer copies.
    pm::CowImage initial(pool.snapshot());

    // Step 1: pre-failure stage, traced.
    trace::TraceBuffer pre_trace;
    std::array<std::uint64_t, trace::opCount> pre_ops{};
    {
        obs::SpanScope span(tl, "pre-failure", "phase", 0);
        trace::PmRuntime rt(pool, pre_trace, trace::Stage::PreFailure);
        rt.setBatching(true);
        rt.setSameValueElision(cfg.elideSameValueWrites);
        auto t0 = std::chrono::steady_clock::now();
        try {
            pre(rt);
        } catch (const trace::StageComplete &) {
        }
        rt.setBatching(false); // flush the ring before reading counts
        totals.preSeconds = secondsSince(t0);
        totals.phases.note(obs::Phase::TraceCapture,
                                 totals.preSeconds);
        pre_ops = rt.opCounts();
        totals.sameValueElided = rt.sameValueElided();
    }
    totals.preTraceEntries = pre_trace.size();
    if (live) {
        live->count("pre_trace_entries", pre_trace.size());
        live->gauge("pre_seconds", totals.preSeconds);
    }

    if (observer)
        observer->notifyPreTrace(pre_trace);

    // Step 2: plan failure points before each ordering point.
    FailurePlan plan;
    {
        obs::SpanScope span(tl, "plan-failure-points", "phase", 0);
        auto t0 = std::chrono::steady_clock::now();
        plan = planFailurePoints(pre_trace, cfg);
        totals.phases.note(obs::Phase::Plan, secondsSince(t0));
    }

    // Step 2b (--backend=batched): group planned points by frontier
    // signature — an earlier kept point at the same ordering-point
    // source location exposed an identical frontier signature, so the
    // post-failure stage can only rediscover the representative's
    // findings. Each group is one scheduling unit; only its
    // representative executes. The oracle differential campaign
    // re-checks every folded point against its representative. The
    // signature proves equivalence of anchor images only, so the
    // durable tier schedules every planned point.
    std::uint32_t total_units =
        static_cast<std::uint32_t>(plan.points.size());
    struct WorkItem
    {
        std::uint32_t fp;
        std::uint32_t weight;
    };
    std::vector<WorkItem> schedule;
    if (cfg.batchingOn() && !cfg.durableTier() &&
        !plan.points.empty()) {
        obs::SpanScope span(tl, "plan-batches", "phase", 0);
        auto t0 = std::chrono::steady_clock::now();
        BatchPlan batches = planBatches(pre_trace, plan.points,
                                        cfg.granularity, cfg.eadrOn());
        totals.lintPrunedPoints = batches.foldedPoints();
        totals.batchGroups = batches.groups.size();
        schedule.reserve(batches.groups.size());
        for (const auto &g : batches.groups) {
            schedule.push_back(
                {g.rep, static_cast<std::uint32_t>(g.weight())});
        }
        totals.phases.note(obs::Phase::LintPrune,
                                 secondsSince(t0));
    } else {
        schedule.reserve(plan.points.size());
        for (std::uint32_t fp : plan.points)
            schedule.push_back({fp, 1});
    }
    totals.failurePoints = schedule.size();
    totals.orderingCandidates = plan.candidates;
    totals.elidedPoints = plan.elided;
    totals.poolBytes = pool.size();

    if (live)
        live->gauge("failure_points_planned", total_units);

    // Index the write log by page once; workers share it read-only.
    // base_sync_pages bounds where any working image can differ from
    // a zeroed pool (every logged write's page + the initial
    // snapshot's nonzero pages); chunk starts and checkpoint resyncs
    // restore that set instead of the whole pool.
    pm::ImageDeltaStore delta_store;
    std::set<std::uint32_t> base_sync_pages;
    {
        obs::SpanScope span(tl, "index-write-log", "phase", 0);
        auto t0 = std::chrono::steady_clock::now();
        delta_store = trace::buildDeltaStore(
            pre_trace, cfg.deltaPageSize, pool.range());
        delta_store.collectPages(
            0, static_cast<std::uint32_t>(pre_trace.size()),
            base_sync_pages);
        initial.collectNonZeroPages(cfg.deltaPageSize,
                                    base_sync_pages);
        totals.phases.note(obs::Phase::IndexWriteLog, secondsSince(t0));
    }
    chunkSyncPages = &base_sync_pages;

    std::uint32_t trace_end =
        static_cast<std::uint32_t>(pre_trace.size());
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, std::max<std::size_t>(
                                           schedule.size(), 1)));

    // Steps 3-4: per schedule item (failure point, or signature group
    // under --backend=batched), reconstruct the image, run the
    // post-failure stage, and check its trace against the shadow PM.
    // Workers pull items off a shared index — dynamic load balancing
    // with no handoff of cursors: each worker's won items are still
    // in ascending seq order, so its shadow/image cursors advance
    // monotonically. Findings land in per-item sinks and merge in
    // item order after the join, so the merged result is identical
    // whatever the worker count or item-to-worker assignment.
    std::deque<BugSink> item_sinks(schedule.size());
    std::deque<CampaignStats> stats(threads);
    // Crash-state tiers other than the anchor need the cell model and
    // its durable image: a partial candidate materializes as durable
    // image + masked frontier events, and the durable tier runs on
    // the durable image itself. Under eADR every frontier is empty
    // (the durable image is the working image), so the extra
    // bookkeeping is skipped.
    const bool cells =
        (cfg.crashStatesOn() || cfg.durableTier()) && !cfg.eadrOn();
    std::deque<PreCursor> cursors;
    for (unsigned t = 0; t < threads; t++)
        cursors.emplace_back(pool.range(), cfg, initial, cells,
                             delta_store);

    // Per-worker observability sinks, merged deterministically
    // (worker order) into the observer after the join.
    std::deque<std::vector<double>> post_latency(threads);
    std::deque<std::array<std::uint64_t, trace::opCount>>
        post_ops(threads);
    for (auto &a : post_ops)
        a.fill(0);
    std::vector<int> tracks(threads, 0);
    if (tl && threads > 1) {
        for (unsigned t = 0; t < threads; t++)
            tracks[t] = tl->registerTrack(strprintf("worker-%u", t));
    }
    // Item i < threads is pre-assigned to worker i (every worker is
    // guaranteed work when there is enough to go around, and each
    // gets a warm cursor); the rest of the schedule is pulled off
    // the shared index. A worker's sequence of item indices is
    // strictly increasing either way, keeping its cursors monotonic.
    std::atomic<std::size_t> next_item{threads};
    std::atomic<std::size_t> units_done{0};
    std::atomic<std::size_t> bugs_found{0};
    std::mutex progress_lock;
    std::latch start_gate(threads);

    auto worker = [&](unsigned t) {
        if (threads > 1)
            setThreadLogLabel(strprintf("w%u", t));
        // Each worker executes post-failure stages on its own pool
        // replica at the same base address.
        pm::PmPool *exec_pool = &pool;
        std::unique_ptr<pm::PmPool> local;
        if (threads > 1) {
            local = std::make_unique<pm::PmPool>(pool.size(),
                                                 pool.base());
            exec_pool = local.get();
        }
        exec_pool->enableDirtyTracking(cfg.deltaPageSize);
        WorkerObs wobs{tl, tracks[t], &post_latency[t], &post_ops[t],
                       live};
        // All workers start pulling together — otherwise the first
        // spawned thread can drain a short queue before its peers
        // finish setting up their pool replicas.
        start_gate.arrive_and_wait();
        // Dedup across this worker's items, for progress counting
        // only (the authoritative dedup is the post-join merge).
        BugSink seen;
        bool first = true;
        for (;;) {
            std::size_t i;
            if (first) {
                first = false;
                i = t;
            } else {
                i = next_item.fetch_add(1, std::memory_order_relaxed);
            }
            if (i >= schedule.size())
                break;
            handleFailurePoint(cursors[t], *exec_pool, pre_trace, post,
                               schedule[i].fp, item_sinks[i], stats[t],
                               wobs);
            bool progress = observer && observer->wantsProgress();
            if (progress || live) {
                std::size_t before = seen.size();
                seen.merge(item_sinks[i]);
                std::size_t fresh = seen.size() - before;
                if (fresh) {
                    bugs_found += fresh;
                    if (live)
                        live->count("bugs", fresh);
                }
                // A finished group accounts for all its folded
                // members, so rates and ETAs track actual coverage.
                std::size_t done =
                    units_done.fetch_add(schedule[i].weight) +
                    schedule[i].weight;
                if (live) {
                    live->gauge("failure_points_done",
                                static_cast<double>(done));
                }
                if (progress) {
                    std::lock_guard<std::mutex> lock(progress_lock);
                    observer->notifyProgress(
                        {done, total_units, bugs_found.load()});
                }
            }
        }
        cursors[t].shadow.endPostReplay();
        stats[t].checksPerformed = cursors[t].shadow.checksPerformed();
        stats[t].checksSkipped = cursors[t].shadow.checksSkipped();
        exec_pool->disableDirtyTracking();
        if (threads > 1)
            setThreadLogLabel("");
    };

    // Zero anchor tick: lets progress consumers (the CLI meter's ETA
    // in particular) anchor their per-point rate at loop start, so
    // the first finished item — a whole signature group under
    // --backend=batched — is priced into the rate instead of lost to
    // the anchor.
    if (observer && observer->wantsProgress())
        observer->notifyProgress({0, total_units, 0});

    auto tpar0 = std::chrono::steady_clock::now();
    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool_threads;
        for (unsigned t = 0; t < threads; t++)
            pool_threads.emplace_back(worker, t);
        for (auto &th : pool_threads)
            th.join();
    }
    double wall = secondsSince(tpar0);

    // Merge findings in item order: deterministic and identical to
    // the serial campaign regardless of which worker won which item.
    BugSink merged;
    for (auto &s : item_sinks)
        merged.merge(s);
    for (unsigned t = 0; t < threads; t++)
        mergeWorkerStats(totals, stats[t], threads == 1);
    chunkSyncPages = nullptr;
    csCtx = nullptr;
    if (threads > 1) {
        // Per-thread CPU times overlap; report the wall time split
        // proportionally like the serial breakdown would be.
        totals.postSeconds = wall;
    }

    // Performance bugs come from one full pre-trace replay, and the
    // pool is left holding the final pre-failure contents. The FSM
    // counters exported to the observer come from this cursor: it
    // covers the whole trace exactly once, so serial and parallel
    // campaigns register identical values.
    ShadowFsmCounters fsm;
    {
        obs::SpanScope span(tl, "perf-scan", "phase", 0);
        // Only the shadow and the working image matter here.
        PreCursor full(pool.range(), cfg, initial, false, delta_store);
        auto tb = std::chrono::steady_clock::now();
        advanceShadow(full, pre_trace, trace_end, &merged);
        advanceImage(full, pre_trace, trace_end);
        double scan_s = secondsSince(tb);
        totals.backendSeconds += scan_s;
        totals.phases.note(obs::Phase::Classify, scan_s);
        full.image.copyTo(pool);
        fsm = full.shadow.fsmCounters();
    }

    result.reports = merged.bugs();

    if (observer && cfg.collectStats && obs::statsCompiledIn) {
        std::array<std::uint64_t, trace::opCount> post_ops_total{};
        std::vector<double> latency_all;
        for (unsigned t = 0; t < threads; t++) {
            for (std::size_t i = 0; i < trace::opCount; i++)
                post_ops_total[i] += post_ops[t][i];
            latency_all.insert(latency_all.end(),
                               post_latency[t].begin(),
                               post_latency[t].end());
        }
        fillObserverStats(result, pre_ops, post_ops_total, fsm,
                          latency_all);
    }
    return result;
}

void
Driver::fillObserverStats(
    const CampaignResult &res,
    const std::array<std::uint64_t, trace::opCount> &pre_ops,
    const std::array<std::uint64_t, trace::opCount> &post_ops,
    const ShadowFsmCounters &fsm,
    const std::vector<double> &post_latency)
{
    obs::StatsRegistry &reg = observer->stats;
    auto set = [&](const std::string &name, const std::string &desc,
                   double v) {
        reg.scalar(name, desc).set(v);
    };

    exportCampaignStats(res, reg);
    set("campaign.bugs", "distinct findings",
        static_cast<double>(res.findings().size()));

    // Shadow-PM persistency-FSM edge traversals (Fig. 6), from the
    // deterministic full-trace replay.
    for (std::size_t f = 0; f < ShadowFsmCounters::numStates; f++) {
        for (std::size_t t = 0; t < ShadowFsmCounters::numStates; t++) {
            std::uint64_t n = fsm.edge[f][t];
            if (!n)
                continue;
            auto from = static_cast<PersistState>(f);
            auto to = static_cast<PersistState>(t);
            set(strprintf("shadow_fsm.edge.%s_to_%s",
                          persistStateName(from), persistStateName(to)),
                "shadow-PM state transitions over the pre-trace",
                static_cast<double>(n));
        }
    }
    set("shadow_fsm.redundant_flushes",
        "flushes of lines with no modified data",
        static_cast<double>(fsm.redundantFlushes));
    set("shadow_fsm.fences", "fences replayed",
        static_cast<double>(fsm.fences));
    set("shadow_fsm.ordering_fences",
        "fences that persisted at least one pending line",
        static_cast<double>(fsm.orderingFences));

    // Per-op trace volumes.
    for (std::size_t i = 0; i < trace::opCount; i++) {
        auto op = static_cast<trace::Op>(i);
        if (pre_ops[i]) {
            set(strprintf("trace.pre.%s", trace::opName(op)),
                "pre-failure trace entries of this op",
                static_cast<double>(pre_ops[i]));
        }
        if (post_ops[i]) {
            set(strprintf("trace.post.%s", trace::opName(op)),
                "post-failure trace entries of this op (all "
                "executions)",
                static_cast<double>(post_ops[i]));
        }
    }

    // Post-failure execution latency distribution, in microseconds.
    obs::Histogram &h = reg.histogram(
        "campaign.post_exec_latency_us",
        "post-failure stage latency per failure point (us)");
    for (double sec : post_latency)
        h.sample(sec * 1e6);
}

} // namespace xfd::core
