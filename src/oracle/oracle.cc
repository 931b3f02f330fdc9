#include "oracle/oracle.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "pm/delta.hh"
#include "trace/runtime.hh"

namespace xfd::oracle
{

CrashStateOracle::CrashStateOracle(const trace::TraceBuffer &p,
                                   const pm::PmImage &initial,
                                   const OracleConfig &c)
    : pre(p), cfg(c), gran(c.detector.granularity),
      eadr(c.detector.eadrOn()),
      execPool(initial.size(), initial.base()), working(initial),
      durable(initial)
{
    if (gran == 0 || (gran & (gran - 1)) != 0 || gran > cacheLineSize)
        fatal("oracle granularity must be a power of two <= 64");
    // 2^frontier subsets are enumerated below the limit; keep the
    // shift well-defined.
    cfg.frontierLimit = std::min<std::size_t>(cfg.frontierLimit, 20);
    execPool.enableDirtyTracking(restorePageSize);
}

std::uint64_t
CrashStateOracle::cellIndex(Addr a) const
{
    return (a - durable.base()) / gran;
}

std::uint64_t
CrashStateOracle::cellCount(Addr a, std::size_t n) const
{
    Addr first = a / gran;
    Addr last = (a + n - 1) / gran;
    return last - first + 1;
}

Addr
CrashStateOracle::cellAddr(std::uint64_t idx) const
{
    return durable.base() + idx * gran;
}

void
CrashStateOracle::persistCellBytes(std::uint64_t idx)
{
    Addr a = cellAddr(idx);
    std::size_t off = a - working.base();
    durable.applyWrite(a, working.data() + off, gran);
    std::uint32_t page =
        static_cast<std::uint32_t>(off / restorePageSize);
    durableDirty.insert(page);
    std::uint32_t lastPage = static_cast<std::uint32_t>(
        (off + gran - 1) / restorePageSize);
    if (lastPage != page)
        durableDirty.insert(lastPage);
}

void
CrashStateOracle::advance(std::uint32_t to)
{
    using trace::Op;

    for (; cursor < to; cursor++) {
        const auto &e = pre[cursor];
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite: {
            working.applyWrite(e.addr, e.data.data(), e.data.size());
            if (e.has(trace::flagImageOnly)) {
                // Allocator zero-fill and friends: image data with no
                // persistence semantics. Both images take it at once,
                // so it is never part of any frontier.
                durable.applyWrite(e.addr, e.data.data(),
                                   e.data.size());
                if (!e.data.empty()) {
                    std::size_t off = e.addr - durable.base();
                    for (std::size_t p = off / restorePageSize;
                         p <= (off + e.data.size() - 1) /
                                  restorePageSize;
                         p++) {
                        durableDirty.insert(
                            static_cast<std::uint32_t>(p));
                    }
                }
                break;
            }
            if (e.size == 0)
                break;
            bool nt = e.op == Op::NtWrite;
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t count = cellCount(e.addr, e.size);
            for (std::uint64_t i = 0; i < count; i++) {
                OCell &c = cells[first + i];
                if (eadr) {
                    // Flush-free: durable on arrival. The tail stays
                    // empty, so the cell never joins a frontier and
                    // its bytes land in the durable image at once.
                    c.state = CellState::Persisted;
                    c.touched = true;
                    c.uninit = false;
                    c.tlast = ts;
                    c.tail.clear();
                    persistCellBytes(first + i);
                    continue;
                }
                c.state = nt ? CellState::Pending
                             : CellState::Modified;
                c.touched = true;
                c.uninit = false;
                c.tlast = ts;
                c.tail.push_back(e.seq);
                if (nt)
                    pending.push_back(first + i);
            }
            // A write overlapping a commit variable is a commit write:
            // it versions the variable's consistency window.
            for (auto &cv : cvars) {
                if (cv.var.overlaps({e.addr, e.addr + e.size})) {
                    cv.tprelast = cv.tlast;
                    cv.tlast = ts;
                }
            }
            break;
          }
          case Op::Clwb:
          case Op::ClflushOpt:
          case Op::Clflush: {
            // Writeback starts for every modified cell in the line;
            // durability lands at the next fence. Flush-free model:
            // nothing to start, everything is already durable.
            if (eadr)
                break;
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t count = cellCount(e.addr, cacheLineSize);
            for (std::uint64_t i = 0; i < count; i++) {
                auto it = cells.find(first + i);
                if (it == cells.end() ||
                    it->second.state != CellState::Modified) {
                    continue;
                }
                it->second.state = CellState::Pending;
                pending.push_back(first + i);
            }
            break;
          }
          case Op::Sfence:
          case Op::Mfence: {
            // The fence retires cells still pending (a cached write
            // after the flush keeps the cell in flight). Their bytes
            // become part of the durable image and their tails empty:
            // nothing about them is undecided at a crash any more.
            for (std::uint64_t idx : pending) {
                auto it = cells.find(idx);
                if (it == cells.end() ||
                    it->second.state != CellState::Pending) {
                    continue;
                }
                it->second.state = CellState::Persisted;
                persistCellBytes(idx);
                it->second.tail.clear();
            }
            pending.clear();
            ts++;
            break;
          }
          case Op::Alloc: {
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t count = cellCount(e.addr, e.size);
            for (std::uint64_t i = 0; i < count; i++) {
                OCell &c = cells[first + i];
                c.state = CellState::Modified;
                c.touched = true;
                c.uninit = true;
                c.tlast = ts;
            }
            break;
          }
          case Op::Free: {
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t count = cellCount(e.addr, e.size);
            for (std::uint64_t i = 0; i < count; i++) {
                auto it = cells.find(first + i);
                if (it == cells.end())
                    continue;
                // Freed cells leave the frontier; pin their bytes at
                // the last written value so the all-updates candidate
                // stays byte-identical to the detector's image.
                if (!it->second.tail.empty())
                    persistCellBytes(first + i);
                cells.erase(it);
            }
            break;
          }
          case Op::CommitVar:
            registerVar(cvars, e.addr, e.size);
            break;
          case Op::CommitRange:
            registerRange(cvars, e.aux, e.addr, e.size);
            break;
          default:
            break;
        }
    }
}

std::vector<FrontierEvent>
CrashStateOracle::collectFrontier() const
{
    std::set<std::uint32_t> seqs;
    for (const auto &[idx, c] : cells) {
        for (std::uint32_t s : c.tail)
            seqs.insert(s);
    }
    std::vector<FrontierEvent> frontier;
    frontier.reserve(seqs.size());
    for (std::uint32_t s : seqs) {
        const auto &e = pre[s];
        frontier.push_back(FrontierEvent{s, e.addr, e.size});
    }
    return frontier;
}

trace::CandidateSet
CrashStateOracle::buildCandidateSet(
    std::vector<FrontierEvent> frontier,
    const std::map<std::uint32_t, std::size_t> &bitOf) const
{
    std::vector<std::vector<std::size_t>> chains;
    for (const auto &[idx, c] : cells) {
        if (c.tail.empty())
            continue;
        std::vector<std::size_t> chain;
        chain.reserve(c.tail.size());
        for (std::uint32_t s : c.tail)
            chain.push_back(bitOf.at(s));
        chains.push_back(std::move(chain));
    }
    return trace::CandidateSet(std::move(frontier),
                               std::move(chains));
}

void
CrashStateOracle::restoreExecPool()
{
    pm::DeltaRestoreStats st;
    if (!poolSynced) {
        pm::restoreFull(durable, execPool, st);
        execPool.clearDirtyPages();
        durableDirty.clear();
        poolSynced = true;
    } else {
        // The pool matches the durable image as of the last restore
        // except on pages the image gained since (durableDirty) and
        // pages the previous candidate soiled (mask application +
        // recovery writes). Copy exactly that union.
        std::set<std::uint32_t> pages;
        pages.swap(durableDirty);
        execPool.drainDirtyPages(pages);
        pm::restorePages(durable, execPool, restorePageSize, pages,
                         st);
    }
    static const bool validate =
        std::getenv("XFD_ORACLE_VALIDATE") != nullptr;
    if (validate && std::memcmp(durable.data(), execPool.data(),
                                durable.size()) != 0) {
        std::size_t off = 0;
        while (durable.data()[off] == execPool.data()[off])
            off++;
        panic("oracle delta restore diverged at pool offset %#zx "
              "(page %zu)",
              off, off / restorePageSize);
    }
}

void
CrashStateOracle::applyMask(
    const std::vector<FrontierEvent> &frontier,
    const trace::SubsetMask &mask,
    const std::map<std::uint32_t, std::size_t> &bitOf)
{
    (void)bitOf;
    // Ascending seq order: a later applied event overwrites an earlier
    // one where they overlap, as the caches would.
    for (std::size_t b = 0; b < frontier.size(); b++) {
        if (!mask.test(b))
            continue;
        const auto &e = pre[frontier[b].seq];
        if (e.size == 0)
            continue;
        if (e.data.empty()) {
            // Payload-elided same-value write (flagSameValue): the
            // bytes it would land equal the image content at emit
            // time, so there is nothing to materialize.
            continue;
        }
        std::uint64_t first = cellIndex(e.addr);
        std::uint64_t count = cellCount(e.addr, e.size);
        for (std::uint64_t i = 0; i < count; i++) {
            std::uint64_t idx = first + i;
            auto it = cells.find(idx);
            if (it == cells.end())
                continue;
            // Only cells still carrying the event are undecided; a
            // cell that retired it after a later flush+fence already
            // has its bytes (and possibly newer ones) in durable.
            const auto &tail = it->second.tail;
            if (std::find(tail.begin(), tail.end(), e.seq) ==
                tail.end()) {
                continue;
            }
            Addr lo = std::max(cellAddr(idx), e.addr);
            Addr hi = std::min(cellAddr(idx) + gran,
                               e.addr + e.size);
            if (lo >= hi)
                continue;
            std::size_t n = hi - lo;
            std::memcpy(execPool.data() + (lo - execPool.base()),
                        e.data.data() + (lo - e.addr), n);
            execPool.markDirty(lo, n);
        }
    }
}

std::set<core::BugType>
CrashStateOracle::runCandidate(const core::ProgramFn &post,
                               bool suppressSemantic)
{
    using trace::Op;

    nCandidates++;
    std::set<core::BugType> classes;
    trace::TraceBuffer postTrace;
    {
        trace::PmRuntime rt(execPool, postTrace,
                            trace::Stage::PostFailure);
        rt.setEntryCap(1u << 20);
        try {
            post(rt);
        } catch (const trace::StageComplete &) {
        } catch (const trace::PostFailureAbort &) {
            classes.insert(core::BugType::RecoveryFailure);
        } catch (const pm::BadPmAccess &) {
            classes.insert(core::BugType::RecoveryFailure);
        }
    }

    // Classify the recovery's reads against the oracle cells, with
    // candidate-scoped overwrite/first-read marks and commit clocks.
    std::map<std::uint64_t, std::uint8_t> pflags;
    std::vector<OCommitVar> scoped = cvars;
    for (const auto &e : postTrace) {
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite:
          case Op::Alloc: {
            if (e.size == 0)
                break;
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t count = cellCount(e.addr, e.size);
            for (std::uint64_t i = 0; i < count; i++)
                pflags[first + i] |= 1; // overwritten
            break;
          }
          case Op::CommitVar:
            registerVar(scoped, e.addr, e.size);
            break;
          case Op::CommitRange:
            registerRange(scoped, e.aux, e.addr, e.size);
            break;
          case Op::Read: {
            if (!e.has(trace::flagInRoi) ||
                e.has(trace::flagInternal) ||
                e.has(trace::flagSkipDetection)) {
                break;
            }
            int v = classifyRead(e.addr, e.size, pflags, scoped);
            if (v == 1) {
                classes.insert(core::BugType::CrossFailureRace);
            } else if (v == 2 && !suppressSemantic) {
                // Mirrors the driver: the commit-window verdict
                // assumes the all-updates image (and, per candidate,
                // that no commit write was dropped).
                classes.insert(core::BugType::CrossFailureSemantic);
            }
            break;
          }
          default:
            break;
        }
    }
    return classes;
}

int
CrashStateOracle::classifyRead(
    Addr a, std::size_t n,
    std::map<std::uint64_t, std::uint8_t> &pflags,
    const std::vector<OCommitVar> &vars) const
{
    if (n == 0)
        return 0;
    int verdict = 0; // 0 = ok/benign, 1 = race, 2 = semantic
    std::uint64_t first = cellIndex(a);
    std::uint64_t count = cellCount(a, n);
    for (std::uint64_t i = 0; i < count; i++) {
        std::uint64_t idx = first + i;
        Addr ca = cellAddr(idx);

        // Reading a commit variable is the benign cross-failure race.
        if (isCommitVarAddr(ca, vars))
            continue;

        std::uint8_t &f = pflags[idx];
        if (f & 1) // overwritten by recovery before this read
            continue;
        if (cfg.detector.firstReadOnly && (f & 2))
            continue;
        f |= 2; // checked

        auto it = cells.find(idx);
        if (it == cells.end() || !it->second.touched)
            continue; // untouched pre-failure: initial data
        if (verdict != 0)
            continue; // first offending cell decides; keep marking

        const OCell &c = it->second;
        if (c.uninit) {
            verdict = 1;
            continue;
        }
        const OCommitVar *var = coveringVar(ca, vars);
        bool consistent = var && var->tprelast <= c.tlast &&
                          c.tlast < var->tlast;
        bool persisted = c.tail.empty();
        if (consistent &&
            !(cfg.detector.strictPersistCheck && !persisted)) {
            continue;
        }
        if (!persisted) {
            verdict = 1;
            continue;
        }
        if (var)
            verdict = 2;
    }
    return verdict;
}

const CrashStateOracle::OCommitVar *
CrashStateOracle::coveringVar(Addr a,
                              const std::vector<OCommitVar> &vars)
    const
{
    for (const auto &cv : vars) {
        for (const auto &r : cv.ranges) {
            if (r.contains(a))
                return &cv;
        }
    }
    // A single commit variable with no registered ranges covers all
    // PM locations.
    if (vars.size() == 1 && vars.front().ranges.empty())
        return &vars.front();
    return nullptr;
}

bool
CrashStateOracle::isCommitVarAddr(
    Addr a, const std::vector<OCommitVar> &vars) const
{
    for (const auto &cv : vars) {
        if (cv.var.contains(a))
            return true;
    }
    return false;
}

void
CrashStateOracle::registerVar(std::vector<OCommitVar> &vars, Addr a,
                              std::size_t n)
{
    AddrRange r{a, a + n};
    for (const auto &cv : vars) {
        if (cv.var == r)
            return;
    }
    vars.push_back(OCommitVar{r, {}, -1, -1});
}

void
CrashStateOracle::registerRange(std::vector<OCommitVar> &vars,
                                Addr cv_addr, Addr a, std::size_t n)
{
    for (auto &cv : vars) {
        if (!cv.var.contains(cv_addr))
            continue;
        AddrRange r{a, a + n};
        for (const auto &existing : cv.ranges) {
            if (existing == r)
                return;
        }
        cv.ranges.push_back(r);
        return;
    }
}

FpOracleResult
CrashStateOracle::runFailurePoint(
    std::uint32_t fp, const core::ProgramFn &post,
    const std::vector<trace::SubsetMask> *extraMasks,
    const std::uint64_t *stream)
{
    if (fp < cursor) {
        panic("oracle failure points must be fed in ascending order "
              "(got %u after %u)",
              fp, cursor);
    }
    advance(fp);

    FpOracleResult res;
    res.fp = fp;
    res.frontier = collectFrontier();
    std::size_t k = res.frontier.size();
    std::map<std::uint32_t, std::size_t> bitOf;
    for (std::size_t b = 0; b < k; b++)
        bitOf[res.frontier[b].seq] = b;

    trace::CandidateSet cset = buildCandidateSet(res.frontier, bitOf);
    trace::CandidateSet::EnumerateOptions eopt;
    eopt.exhaustive = cfg.exhaustive;
    eopt.frontierLimit = cfg.frontierLimit;
    eopt.sampleCount = cfg.sampleCount;
    eopt.seed = cfg.seed;
    eopt.stream = stream ? *stream : fp;
    auto en = cset.enumerate(eopt);
    std::vector<trace::SubsetMask> masks = std::move(en.masks);
    res.sampled = en.sampled;

    if (extraMasks) {
        // Detector-explored candidates the enumeration above missed
        // (different knobs or a different sampler stream): classify
        // them too, after repairing to legality.
        std::set<trace::SubsetMask> have(masks.begin(), masks.end());
        for (const auto &m : *extraMasks) {
            if (m.size() != k)
                continue;
            trace::SubsetMask cand = m;
            cset.repair(cand);
            if (have.insert(cand).second)
                masks.push_back(std::move(cand));
        }
    }
    res.statesLegal = masks.size();

    res.candidates.reserve(masks.size());
    for (const auto &m : masks) {
        restoreExecPool();
        applyMask(res.frontier, m, bitOf);
        bool droppedCommit = false;
        for (std::size_t b = 0; b < k && !droppedCommit; b++) {
            if (m.test(b))
                continue;
            AddrRange ev{res.frontier[b].addr,
                         res.frontier[b].addr + res.frontier[b].size};
            for (const auto &cv : cvars) {
                if (cv.var.overlaps(ev)) {
                    droppedCommit = true;
                    break;
                }
            }
        }
        CandidateOutcome out;
        out.mask = m;
        out.classes = runCandidate(post, droppedCommit);
        res.candidates.push_back(std::move(out));
    }
    return res;
}

bool
parseOracleMode(const std::string &mode, bool &exhaustive,
                std::size_t &sampleCount, std::string *err)
{
    if (mode == "exhaustive") {
        exhaustive = true;
        return true;
    }
    if (mode == "sample") {
        exhaustive = false;
        return true;
    }
    if (mode.rfind("sample:", 0) == 0) {
        const std::string arg = mode.substr(7);
        char *end = nullptr;
        unsigned long n = std::strtoul(arg.c_str(), &end, 10);
        if (!arg.empty() && end && *end == '\0' && n > 0) {
            exhaustive = false;
            sampleCount = n;
            return true;
        }
    }
    if (err) {
        *err = "bad oracle mode \"" + mode +
               "\" (want exhaustive or sample:<n>)";
    }
    return false;
}

} // namespace xfd::oracle
