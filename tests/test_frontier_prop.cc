/**
 * @file
 * Property tests for the incrementally kept frontier signature
 * (lint::FrontierState): on random traces with writes, flushes,
 * fences, allocations, frees (including overlapping and mis-sized
 * ones), commit variables, commit ranges and payload-elided writes,
 * the materialized signature equals one rebuilt from scratch by the
 * reference walk below, dataInFlight() equals a scan, every cell's
 * tail of undecided writes and the cells each entry decides (the
 * crash-state tiers' inputs) match the reference's, and the prune
 * pass groups points exactly as equal reference signatures would.
 * Cases are seeded; XFD_FUZZ_SEED replays one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "harness.hh"
#include "lint/frontier.hh"
#include "lint/lint.hh"

namespace
{

using namespace xfd;
using trace::Op;
using trace::TraceBuffer;
using trace::TraceEntry;

/**
 * From-scratch signature: every cell, every commit variable and every
 * allocation is looked at again for each query.
 */
class Reference
{
  public:
    Reference(unsigned granularity, bool flushFree)
        : gran(granularity), eadr(flushFree)
    {
    }

    void
    apply(const TraceEntry &e)
    {
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite: {
            if (e.has(trace::flagImageOnly) || e.size == 0)
                break;
            bool nt = e.op == Op::NtWrite;
            char to = eadr ? 'p' : nt ? 'w' : 'm';
            for (std::uint64_t i : cellsOf(e.addr, e.size)) {
                cells[i] = Cell{to, e.loc, ts, false};
                // Flush-free: durable on arrival, never undecided.
                if (eadr)
                    decided.push_back(i * gran);
                else
                    tails[i].push_back(e.seq);
            }
            for (auto &cv : vars) {
                if (cv.var.overlaps({e.addr, e.addr + e.size})) {
                    cv.pre = cv.last;
                    cv.last = ts;
                    cv.val.clear();
                    if (e.has(trace::flagSameValue) && e.data.empty())
                        cv.val = strprintf("sv#%u", e.seq);
                    for (std::size_t i = 0; i < e.data.size() && i < 16;
                         i++)
                        cv.val += strprintf("%02x", e.data[i]);
                }
            }
            break;
          }
          case Op::Clwb:
          case Op::ClflushOpt:
          case Op::Clflush:
            if (eadr)
                break;
            for (std::uint64_t i : cellsOf(e.addr, cacheLineSize)) {
                auto it = cells.find(i);
                if (it != cells.end() && it->second.st == 'm')
                    it->second.st = 'w';
            }
            break;
          case Op::Sfence:
          case Op::Mfence:
            for (auto &[i, c] : cells) {
                if (c.st == 'w') {
                    c.st = 'p';
                    decided.push_back(i * gran);
                    tails.erase(i);
                }
            }
            ts++;
            break;
          case Op::Alloc:
            for (std::uint64_t i : cellsOf(e.addr, e.size))
                cells[i] = Cell{'m', e.loc, ts, true};
            if (e.size)
                allocs[e.addr] = {e.addr + e.size, e.loc};
            break;
          case Op::Free:
            for (std::uint64_t i : cellsOf(e.addr, e.size)) {
                if (tails.count(i))
                    decided.push_back(i * gran);
                tails.erase(i);
                cells.erase(i);
            }
            allocs.erase(e.addr);
            break;
          case Op::CommitVar: {
            AddrRange r{e.addr, e.addr + e.size};
            if (std::none_of(vars.begin(), vars.end(),
                             [&](const Var &v) { return v.var == r; }))
                vars.push_back(Var{r, {}, -1, -1, {}});
            break;
          }
          case Op::CommitRange:
            for (auto &cv : vars) {
                if (cv.var.contains(e.aux)) {
                    AddrRange r{e.addr, e.addr + e.size};
                    if (std::find(cv.ranges.begin(), cv.ranges.end(),
                                  r) == cv.ranges.end())
                        cv.ranges.push_back(r);
                    break;
                }
            }
            break;
          default:
            break;
        }
    }

    std::string
    signature() const
    {
        std::set<std::string> inflight, inconsistent;
        for (const auto &[i, c] : cells) {
            Addr a = i * gran;
            const Var *v = cover(a);
            bool ok = v && v->pre <= c.t && c.t < v->last;
            std::string loc = strprintf("%s:%u", c.writer.file,
                                        c.writer.line);
            if (c.st != 'p') {
                inflight.insert(strprintf("%s:%c%c@%s", loc.c_str(),
                                          c.uninit ? 'u' : '-',
                                          !v ? 'n' : ok ? 'c' : 'i',
                                          region(a).c_str()));
            } else if (!c.uninit && v && !ok) {
                inconsistent.insert(strprintf(
                    "%s:%c@%s", loc.c_str(), c.t < v->pre ? 's' : '-',
                    region(a).c_str()));
            }
        }
        std::string sig;
        for (const auto &s : inflight)
            sig += s + ';';
        sig += '|';
        for (const auto &s : inconsistent)
            sig += s + ';';
        for (std::size_t i = 0; i < vars.size(); i++) {
            auto it = cells.find(vars[i].var.begin / gran);
            char st = it == cells.end() ? '-' : it->second.st;
            sig += strprintf("#%zu=%s:%c", i, vars[i].val.c_str(), st);
        }
        return sig;
    }

    /** Cells decided by the last apply(), ascending. */
    std::vector<Addr>
    takeDecided()
    {
        std::sort(decided.begin(), decided.end());
        return std::exchange(decided, {});
    }

    /** Every tracked cell's tail (empty: decided), by address. */
    std::map<Addr, std::vector<std::uint32_t>>
    cellTails() const
    {
        std::map<Addr, std::vector<std::uint32_t>> out;
        for (const auto &[i, c] : cells) {
            auto it = tails.find(i);
            out[i * gran] =
                it == tails.end() ? std::vector<std::uint32_t>{}
                                  : it->second;
        }
        return out;
    }

    bool
    dataInFlight() const
    {
        for (const auto &[i, c] : cells) {
            if (c.st == 'p')
                continue;
            bool inVar = std::any_of(
                vars.begin(), vars.end(),
                [&](const Var &v) { return v.var.contains(i * gran); });
            if (!inVar)
                return true;
        }
        return false;
    }

  private:
    struct Cell
    {
        char st; ///< 'm', 'w' or 'p'
        trace::SrcLoc writer;
        std::int32_t t;
        bool uninit;
    };
    struct Var
    {
        AddrRange var;
        std::vector<AddrRange> ranges;
        std::int32_t last, pre;
        std::string val;
    };

    std::vector<std::uint64_t>
    cellsOf(Addr a, std::size_t n) const
    {
        std::vector<std::uint64_t> out;
        if (n == 0)
            return out;
        for (std::uint64_t i = a / gran; i <= (a + n - 1) / gran; i++)
            out.push_back(i);
        return out;
    }

    const Var *
    cover(Addr a) const
    {
        for (const auto &v : vars) {
            for (const auto &r : v.ranges) {
                if (r.contains(a))
                    return &v;
            }
        }
        if (vars.size() == 1 && vars.front().ranges.empty())
            return &vars.front();
        return nullptr;
    }

    std::string
    region(Addr a) const
    {
        // The allocation with the greatest begin at or below a.
        const std::pair<const Addr, std::pair<Addr, trace::SrcLoc>>
            *best = nullptr;
        for (const auto &al : allocs) {
            if (al.first <= a)
                best = &al;
        }
        if (!best || a >= best->second.first)
            return "root";
        return strprintf("%s:%u+%llu", best->second.second.file,
                         best->second.second.line,
                         static_cast<unsigned long long>(a - best->first));
    }

    unsigned gran;
    bool eadr;
    std::int32_t ts = 0;
    std::map<std::uint64_t, Cell> cells;
    /** Non-empty tails only, by cell index. */
    std::map<std::uint64_t, std::vector<std::uint32_t>> tails;
    std::vector<Addr> decided;
    std::map<Addr, std::pair<Addr, trace::SrcLoc>> allocs;
    std::vector<Var> vars;
};

/**
 * @p st's view of the cells @p ref tracks: each one's tail, plus
 * every undecided cell forEachUndecided() visits.
 */
std::map<Addr, std::vector<std::uint32_t>>
frontierTails(const lint::FrontierState &st,
              const std::map<Addr, std::vector<std::uint32_t>> &ref)
{
    std::map<Addr, std::vector<std::uint32_t>> out;
    for (const auto &[a, tail] : ref) {
        if (const lint::FrontierCell *c = st.cellAt(a))
            out[a] = c->tail;
    }
    st.forEachUndecided([&](Addr a, const lint::FrontierCell &c) {
        out[a] = c.tail;
    });
    return out;
}

// Two pointers to one file name: interning must go by content.
const char fileA1[] = "a.cc";
const char fileA2[] = "a.cc";
const char fileB[] = "b.cc";

trace::SrcLoc
randomLoc(Rng &rng)
{
    static const char *const files[] = {fileA1, fileA2, fileB};
    trace::SrcLoc loc;
    loc.file = files[rng.below(3)];
    loc.line = 1 + static_cast<unsigned>(rng.below(4));
    loc.func = "f";
    return loc;
}

/** A random trace over a 512-byte window. */
TraceBuffer
randomTrace(Rng &rng, std::size_t n)
{
    const Addr base = 0x1000;
    TraceBuffer buf;
    std::vector<std::pair<Addr, std::uint32_t>> allocated;
    auto addr = [&] { return base + rng.below(512); };
    for (std::size_t i = 0; i < n; i++) {
        TraceEntry e;
        e.loc = randomLoc(rng);
        e.flags = trace::flagInRoi;
        std::uint64_t pick = rng.below(100);
        if (pick < 35) {
            e.op = rng.below(5) ? Op::Write : Op::NtWrite;
            e.addr = addr();
            e.size = 1 + static_cast<std::uint32_t>(rng.below(24));
            if (rng.below(8) == 0) {
                e.flags |= trace::flagSameValue; // payload elided
            } else {
                e.data.resize(e.size);
                for (auto &b : e.data)
                    b = static_cast<std::uint8_t>(rng.below(4));
            }
            if (rng.below(20) == 0)
                e.flags |= trace::flagImageOnly;
        } else if (pick < 55) {
            e.op = Op::Clwb;
            e.addr = addr() & ~Addr{cacheLineSize - 1};
            e.size = cacheLineSize;
        } else if (pick < 72) {
            e.op = rng.below(2) ? Op::Sfence : Op::Mfence;
        } else if (pick < 82) {
            e.op = Op::Alloc;
            e.addr = addr();
            e.size = static_cast<std::uint32_t>(rng.below(96));
            allocated.push_back({e.addr, e.size});
        } else if (pick < 90) {
            // Mostly frees of a real allocation; sometimes a miss or
            // a mis-sized one.
            e.op = Op::Free;
            e.addr = addr();
            e.size = static_cast<std::uint32_t>(rng.below(96));
            if (!allocated.empty() && rng.below(3)) {
                auto [a, n] = allocated[rng.below(allocated.size())];
                e.addr = a;
                e.size = rng.below(4) ? n : e.size;
            }
        } else if (pick < 95) {
            e.op = Op::CommitVar;
            e.addr = base + 8 * rng.below(64);
            e.size = 8;
        } else {
            e.op = Op::CommitRange;
            e.aux = base + 8 * rng.below(64);
            e.addr = addr();
            e.size = 1 + static_cast<std::uint32_t>(rng.below(64));
        }
        buf.append(std::move(e));
    }
    return buf;
}

void
fuzzOne(std::uint64_t seed)
{
    Rng rng(seed);
    unsigned gran = 1u << rng.below(4); // 1, 2, 4 or 8 bytes
    bool flushFree = rng.below(4) == 0;
    TraceBuffer buf = randomTrace(rng, 40 + rng.below(200));

    // Failure points at every fence, grouped by reference signature
    // per ordering-point location, the first of a group kept.
    lint::FrontierState st(gran, flushFree);
    std::vector<Addr> decided;
    st.onDecided([&](Addr a) { decided.push_back(a); });
    Reference ref(gran, flushFree);
    std::vector<std::uint32_t> points;
    std::map<std::string, std::uint32_t> firstBySig;
    std::map<std::uint32_t, std::uint32_t> wantRep;
    for (const auto &e : buf) {
        std::string want = ref.signature();
        ASSERT_EQ(st.signature(), want)
            << "before seq " << e.seq << " XFD_FUZZ_SEED=" << seed;
        ASSERT_EQ(st.dataInFlight(), ref.dataInFlight())
            << "before seq " << e.seq << " XFD_FUZZ_SEED=" << seed;
        if (e.isFence()) {
            points.push_back(e.seq);
            std::string group = strprintf("%s:%u|", e.loc.file,
                                          e.loc.line) + want;
            wantRep[e.seq] = firstBySig.emplace(group, e.seq).first->second;
        }
        st.apply(e);
        ref.apply(e);
        std::sort(decided.begin(), decided.end());
        ASSERT_EQ(std::exchange(decided, {}), ref.takeDecided())
            << "cells decided by seq " << e.seq
            << " XFD_FUZZ_SEED=" << seed;
        auto tails = ref.cellTails();
        ASSERT_EQ(frontierTails(st, tails), tails)
            << "tails after seq " << e.seq << " XFD_FUZZ_SEED=" << seed;
    }

    lint::PruneVerdicts v =
        lint::computePruneVerdicts(buf, points, gran, flushFree);
    ASSERT_EQ(v.kept.size() + v.pruned.size(), points.size());
    for (std::uint32_t k : v.kept)
        EXPECT_EQ(wantRep[k], k) << "XFD_FUZZ_SEED=" << seed;
    for (const auto &p : v.pruned)
        EXPECT_EQ(wantRep[p.fp], p.keptRep)
            << "seq " << p.fp << " XFD_FUZZ_SEED=" << seed;
}

TEST(FrontierProp, IncrementalSignatureMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 300; seed++) {
        fuzzOne(seed);
        if (HasFatalFailure())
            return;
    }
}

TEST(FrontierPropReplay, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP()
            << "set XFD_FUZZ_SEED=<seed from a failure message> to "
               "replay a single trace";
    fuzzOne(s);
}

} // namespace
