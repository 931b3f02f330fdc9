#include "lint/frontier.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace xfd::lint
{

FrontierState::FrontierState(unsigned granularity, bool flushFree)
    : gran(granularity), eadr(flushFree)
{
    if (gran == 0 || (gran & (gran - 1)) != 0 || gran > cacheLineSize)
        fatal("lint granularity must be a power of two <= 64");
}

std::size_t
FrontierState::HeadHash::operator()(const Head &k) const
{
    std::uint64_t h = static_cast<std::uint64_t>(k.kind) |
                      static_cast<std::uint64_t>(k.flag) << 8 |
                      static_cast<std::uint64_t>(k.commit) << 16;
    for (std::uint32_t v :
         {k.writerFile, k.writerLine, k.siteFile, k.siteLine}) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
}

namespace
{

/** splitmix64 finalizer: spreads dense key ids over the digest. */
std::uint64_t
mixId(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::uint32_t
FrontierState::fileId(const char *file)
{
    // Cached by pointer, interned by content: one file can reach the
    // trace through several pointers (one per translation unit), and
    // the signature compares names, not pointers.
    if (file == lastFile)
        return lastFileId;
    lastFile = file;
    auto it = fileByPtr.find(file);
    if (it != fileByPtr.end())
        return lastFileId = it->second;
    auto [n, fresh] = fileByName.emplace(
        file, static_cast<std::uint32_t>(fileNames.size() + 1));
    if (fresh)
        fileNames.push_back(file);
    fileByPtr.emplace(file, n->second);
    return lastFileId = n->second;
}

std::uint32_t
FrontierState::keyOf(std::uint64_t idx, const FrontierCell &c)
{
    Addr a = idx * gran;
    const CommitVar *var = coveringVar(a);
    bool consistent =
        var && var->tprelast <= c.tlast && c.tlast < var->tlast;
    Head h;
    if (c.st != CellState::Persisted) {
        // The read check passes an in-flight cell only when its
        // commit window covers it consistently, so that class —
        // uncovered, covered-consistent, covered-inconsistent — is
        // part of the cell's identity.
        h.kind = KeyKind::InFlight;
        h.flag = c.uninit ? 'u' : '-';
        h.commit = !var ? 'n' : consistent ? 'c' : 'i';
    } else {
        if (c.uninit || !var || consistent)
            return 0;
        h.kind = KeyKind::Inconsistent;
        h.flag = c.tlast < var->tprelast ? 's' : '-';
    }
    // Keys hold the writer's source location and allocation region,
    // not the address: the signature must be identical across loop
    // iterations that touch *different* addresses through the *same*
    // code.
    h.writerFile = fileId(c.writer.file);
    h.writerLine = c.writer.line;
    std::uint64_t offset = 0;
    auto al = allocs.upper_bound(a);
    if (al != allocs.begin() && a < std::prev(al)->second.first) {
        // Alloc site plus field offset: instances of one object type
        // collapse, but distinct fields of it do not (a ctree node's
        // child[0] vs child[1] are read back by different recovery
        // statements).
        --al;
        h.siteFile = fileId(al->second.second.file);
        h.siteLine = al->second.second.line;
        offset = a - al->first;
    }
    if (lastHeadId == UINT32_MAX || !(h == lastHead)) {
        auto hit = headIds.find(h);
        if (hit == headIds.end()) {
            auto id = static_cast<std::uint32_t>(heads.size());
            hit = headIds.emplace(h, id).first;
            heads.push_back(h);
        }
        lastHead = h;
        lastHeadId = hit->second;
    }
    // An allocation is at most 4 GiB (TraceEntry::size), so the
    // offset fits the low word.
    std::uint64_t packed = std::uint64_t{lastHeadId} << 32 | offset;
    auto it = keyIds.find(packed);
    if (it == keyIds.end()) {
        auto id = static_cast<std::uint32_t>(keys.size());
        it = keyIds.emplace(packed, id).first;
        keys.push_back(packed);
        keyCount.push_back(0);
    }
    return it->second + 1;
}

void
FrontierState::rekey(std::uint64_t idx, FrontierCell &c)
{
    std::uint32_t k = keyOf(idx, c);
    if (k != c.key) {
        if (c.key && --keyCount[c.key - 1] == 0)
            digest ^= mixId(c.key);
        if (k && keyCount[k - 1]++ == 0)
            digest ^= mixId(k);
        c.key = k;
    }
    bool data = c.st != CellState::Persisted && !isCommitVarAddr(idx * gran);
    if (data != c.inflightData) {
        dataCells += data ? 1 : static_cast<std::size_t>(-1);
        c.inflightData = data;
    }
}

void
FrontierState::rekeyAddrs(Addr lo, Addr hi)
{
    if (lo >= hi)
        return;
    auto end = cells.lower_bound((hi + gran - 1) / gran);
    for (auto it = cells.lower_bound((lo + gran - 1) / gran); it != end;
         ++it) {
        rekey(it->first, it->second);
    }
}

void
FrontierState::settle()
{
    // Programs register their commit variables back to back, often
    // after formatting has written every cell: one pass after the
    // last registration instead of one per registration.
    if (!coverStale)
        return;
    coverStale = false;
    for (auto &[idx, c] : cells)
        rekey(idx, c);
}

void
FrontierState::eraseCell(std::map<std::uint64_t, FrontierCell>::iterator it)
{
    FrontierCell &c = it->second;
    c.st = CellState::Persisted;
    c.uninit = true; // no key, not in flight
    rekey(it->first, c);
    cells.erase(it);
}

void
FrontierState::touch(std::uint64_t idx, FrontierCell &c)
{
    if (c.tlast == ts)
        return;
    c.tlast = ts;
    if (byEpoch.size() <= static_cast<std::size_t>(ts))
        byEpoch.resize(static_cast<std::size_t>(ts) + 1);
    byEpoch[static_cast<std::size_t>(ts)].push_back(idx);
}

Addr
FrontierState::governingEnd(Addr a) const
{
    auto it = allocs.upper_bound(a);
    if (it == allocs.begin())
        return a;
    return std::max(a, std::prev(it)->second.first);
}

void
FrontierState::reRegion(Addr begin, Addr from, Addr endBefore)
{
    // A cell's region is decided by the allocation with the greatest
    // begin at or below it, so only cells between @p begin and the
    // next allocation can have changed — and only those below the
    // governing allocation's end before or after the change (past
    // both, the cell was and stays "root").
    auto next = allocs.upper_bound(begin);
    Addr hi = std::max(endBefore, governingEnd(begin));
    if (next != allocs.end())
        hi = std::min(hi, next->first);
    rekeyAddrs(std::max(begin, from), hi);
}

void
FrontierState::applyWrite(const trace::TraceEntry &e)
{
    if (e.size == 0)
        return;
    bool non_temporal = e.op == trace::Op::NtWrite;
    std::uint64_t first = cellIndex(e.addr);
    std::uint64_t count = cellCount(e.addr, e.size);
    // A write overlapping a commit variable is a commit write: it
    // versions the consistency window of the variable's address set.
    // The written value is recorded too — recovery branches on it
    // (that is what a commit variable is for), so points whose
    // commit variables hold different values must never prune
    // against each other.
    std::vector<std::pair<const CommitVar *, std::int32_t>> moved;
    for (auto &cv : commitVars) {
        if (cv.var.overlaps({e.addr, e.addr + e.size})) {
            moved.push_back({&cv, cv.tprelast});
            cv.tprelast = cv.tlast;
            cv.tlast = ts;
            cv.lastVal.clear();
            if (e.has(trace::flagSameValue) && e.data.empty()) {
                // Payload-elided write: the actual value is whatever
                // the image held, which the signature cannot see.
                // Seed with the entry seq so two points only match
                // when they share this exact commit write (then the
                // value is trivially the same) — conservative, never
                // folds points whose commit values could differ.
                cv.lastVal = strprintf("sv#%u", e.seq);
            }
            for (std::size_t i = 0; i < e.data.size() && i < 16; i++)
                cv.lastVal += strprintf("%02x", e.data[i]);
        }
    }
    // Flush-free model: every store is durable on arrival, mirroring
    // ShadowPM::preWrite under eADR.
    CellState to = eadr            ? CellState::Persisted
                   : non_temporal ? CellState::WritebackPending
                                  : CellState::Modified;
    for (std::uint64_t i = 0; i < count; i++) {
        FrontierCell &c = cells[first + i];
        // A rewrite by the same statement in the same epoch keeps the
        // key unless this write moved a commit window.
        bool same = c.st == to && !c.uninit && c.tlast == ts &&
                    c.writer.file == e.loc.file &&
                    c.writer.line == e.loc.line && moved.empty();
        c.st = to;
        c.writer = e.loc;
        c.writerSeq = e.seq;
        c.uninit = false;
        touch(first + i, c);
        if (!same)
            rekey(first + i, c);
        if (eadr) {
            if (decided)
                decided((first + i) * gran);
            continue;
        }
        c.tail.push_back(e.seq);
        if (non_temporal)
            pendingCells.push_back(first + i);
    }
    for (const auto &[var, from] : moved)
        reclassify(*var, from);
}

void
FrontierState::reclassify(const CommitVar &var, std::int32_t from)
{
    // A commit write moved the variable's windows from (P, L) to
    // (L, now): only cells it covers that were last written in
    // epochs [P, now) change class — older ones stay stale, newer
    // ones stay inconsistent. Visit whichever is smaller: those
    // epochs, or the variable's explicit ranges.
    if (&var != defaultCover() && var.ranges.empty())
        return;
    auto lo = static_cast<std::size_t>(std::max(from, 0));
    auto hi = std::min(static_cast<std::size_t>(ts), byEpoch.size());
    std::size_t epochCells = 0;
    for (std::size_t t = lo; t < hi; t++)
        epochCells += byEpoch[t].size();
    std::size_t rangeCells = SIZE_MAX;
    if (!var.ranges.empty()) {
        rangeCells = 0;
        for (const auto &r : var.ranges)
            rangeCells += cellCount(r.begin, r.end - r.begin);
    }
    if (rangeCells < epochCells) {
        for (const auto &r : var.ranges)
            rekeyAddrs(r.begin, r.end);
        return;
    }
    for (std::size_t t = lo; t < hi; t++) {
        for (std::uint64_t idx : byEpoch[t]) {
            auto it = cells.find(idx);
            if (it != cells.end() &&
                it->second.tlast == static_cast<std::int32_t>(t))
                rekey(idx, it->second);
        }
    }
}

void
FrontierState::applyFlush(Addr line)
{
    // Flush-free model: a writeback changes no persistence state.
    if (eadr)
        return;
    std::uint64_t first = cellIndex(line);
    std::uint64_t count = cellCount(line, cacheLineSize);
    for (std::uint64_t i = 0; i < count; i++) {
        // Modified and WritebackPending share a key: no rekey.
        auto it = cells.find(first + i);
        if (it != cells.end() && it->second.st == CellState::Modified) {
            it->second.st = CellState::WritebackPending;
            pendingCells.push_back(first + i);
        }
    }
}

void
FrontierState::applyFence()
{
    for (std::uint64_t idx : pendingCells) {
        auto it = cells.find(idx);
        if (it != cells.end() &&
            it->second.st == CellState::WritebackPending) {
            it->second.st = CellState::Persisted;
            rekey(idx, it->second);
            if (decided)
                decided(idx * gran);
            it->second.tail.clear();
        }
    }
    pendingCells.clear();
    ts++;
}

void
FrontierState::applyAlloc(const trace::TraceEntry &e)
{
    Addr endBefore = governingEnd(e.addr);
    if (e.size)
        allocs[e.addr] = {e.addr + e.size, e.loc};
    std::uint64_t first = cellIndex(e.addr);
    std::uint64_t count = cellCount(e.addr, e.size);
    for (std::uint64_t i = 0; i < count; i++) {
        FrontierCell &c = cells[first + i];
        c.st = CellState::Modified;
        c.writer = e.loc;
        c.writerSeq = e.seq;
        c.uninit = true;
        touch(first + i, c);
        rekey(first + i, c);
    }
    if (e.size)
        reRegion(e.addr, e.addr + e.size, endBefore);
}

void
FrontierState::applyFree(const trace::TraceEntry &e)
{
    std::uint64_t first = cellIndex(e.addr);
    std::uint64_t count = cellCount(e.addr, e.size);
    for (std::uint64_t i = 0; i < count; i++) {
        auto it = cells.find(first + i);
        if (it == cells.end())
            continue;
        // A freed cell leaves the frontier at its last written value.
        if (decided && !it->second.tail.empty())
            decided((first + i) * gran);
        eraseCell(it);
    }
    auto al = allocs.find(e.addr);
    if (al != allocs.end()) {
        Addr endBefore = al->second.first;
        allocs.erase(al);
        reRegion(e.addr, e.addr, endBefore);
    }
}

void
FrontierState::apply(const trace::TraceEntry &e)
{
    using trace::Op;

    switch (e.op) {
      case Op::Write:
      case Op::NtWrite:
        if (!e.has(trace::flagImageOnly))
            applyWrite(e);
        break;
      case Op::Clwb:
      case Op::ClflushOpt:
      case Op::Clflush:
        applyFlush(e.addr);
        break;
      case Op::Sfence:
      case Op::Mfence:
        applyFence();
        break;
      case Op::Alloc:
        applyAlloc(e);
        break;
      case Op::Free:
        applyFree(e);
        break;
      case Op::CommitVar: {
        AddrRange r{e.addr, e.addr + e.size};
        for (const auto &cv : commitVars) {
            if (cv.var == r)
                return;
        }
        const CommitVar *coverBefore = defaultCover();
        commitVars.push_back(CommitVar{r, {}, -1, -1, {}});
        // Its own cells stop counting as data in flight. It covers
        // nothing itself, but it can start or end the default-cover
        // rule, which reaches every cell.
        rekeyAddrs(r.begin, r.end);
        if (coverBefore || defaultCover())
            coverStale = true;
        break;
      }
      case Op::CommitRange:
        for (auto &cv : commitVars) {
            if (cv.var.contains(e.aux)) {
                AddrRange r{e.addr, e.addr + e.size};
                if (std::find(cv.ranges.begin(), cv.ranges.end(), r) ==
                    cv.ranges.end()) {
                    // Ends the default cover, or covers r anew.
                    bool wasDefault = defaultCover() != nullptr;
                    cv.ranges.push_back(r);
                    if (wasDefault)
                        coverStale = true;
                    else
                        rekeyAddrs(r.begin, r.end);
                }
                return;
            }
        }
        break;
      default:
        break;
    }
}

bool
FrontierState::lineHasState(Addr line, CellState st) const
{
    std::uint64_t first = cellIndex(line);
    std::uint64_t count = cellCount(line, cacheLineSize);
    for (std::uint64_t i = 0; i < count; i++) {
        auto it = cells.find(first + i);
        if (it != cells.end() && it->second.st == st)
            return true;
    }
    return false;
}

bool
FrontierState::lineTracked(Addr line) const
{
    std::uint64_t first = cellIndex(line);
    std::uint64_t count = cellCount(line, cacheLineSize);
    for (std::uint64_t i = 0; i < count; i++) {
        if (cells.count(first + i))
            return true;
    }
    return false;
}

bool
FrontierState::fenceWouldRetire() const
{
    for (std::uint64_t idx : pendingCells) {
        auto it = cells.find(idx);
        if (it != cells.end() &&
            it->second.st == CellState::WritebackPending) {
            return true;
        }
    }
    return false;
}

bool
FrontierState::dataInFlight() const
{
    return dataCells != 0;
}

bool
FrontierState::rangePending(Addr a, std::uint32_t n) const
{
    std::uint64_t first = cellIndex(a);
    std::uint64_t count = cellCount(a, n);
    for (std::uint64_t i = 0; i < count; i++) {
        auto it = cells.find(first + i);
        if (it != cells.end() &&
            it->second.st == CellState::WritebackPending) {
            return true;
        }
    }
    return false;
}

bool
FrontierState::isCommitVarAddr(Addr a) const
{
    for (const auto &cv : commitVars) {
        if (cv.var.contains(a))
            return true;
    }
    return false;
}

bool
FrontierState::overlapsCommitVar(AddrRange r) const
{
    for (const auto &cv : commitVars) {
        if (cv.var.overlaps(r))
            return true;
    }
    return false;
}

const FrontierCell *
FrontierState::cellAt(Addr a) const
{
    auto it = cells.find(cellIndex(a));
    return it == cells.end() ? nullptr : &it->second;
}

const FrontierState::CommitVar *
FrontierState::coveringVar(Addr a) const
{
    for (const auto &cv : commitVars) {
        for (const auto &r : cv.ranges) {
            if (r.contains(a))
                return &cv;
        }
    }
    return defaultCover();
}

const FrontierState::CommitVar *
FrontierState::defaultCover() const
{
    if (commitVars.size() == 1 && commitVars.front().ranges.empty())
        return &commitVars.front();
    return nullptr;
}

void
FrontierState::formatKey(std::uint32_t k)
{
    std::string &text = keyTexts[k - 1];
    const Head &h = heads[keys[k - 1] >> 32];
    std::string region =
        h.siteFile ? strprintf("%s:%u+%llu",
                               fileNames[h.siteFile - 1].c_str(),
                               h.siteLine,
                               static_cast<unsigned long long>(
                                   keys[k - 1] & 0xffffffffu))
                   : std::string("root");
    const char *writer = fileNames[h.writerFile - 1].c_str();
    if (h.kind == KeyKind::InFlight) {
        text = strprintf("%s:%u:%c%c@%s", writer, h.writerLine, h.flag,
                         h.commit, region.c_str());
    } else {
        text = strprintf("%s:%u:%c@%s", writer, h.writerLine, h.flag,
                         region.c_str());
    }
}

std::vector<std::uint32_t>
FrontierState::liveKeys()
{
    settle();
    std::vector<std::uint32_t> live;
    for (std::size_t i = 0; i < keyCount.size(); i++) {
        if (keyCount[i])
            live.push_back(static_cast<std::uint32_t>(i + 1));
    }
    return live;
}

std::string
FrontierState::commitValues() const
{
    std::string out;
    for (std::size_t i = 0; i < commitVars.size(); i++) {
        const CommitVar &cv = commitVars[i];
        char st = '-';
        auto it = cells.find(cellIndex(cv.var.begin));
        if (it != cells.end()) {
            switch (it->second.st) {
              case CellState::Modified: st = 'm'; break;
              case CellState::WritebackPending: st = 'w'; break;
              case CellState::Persisted: st = 'p'; break;
            }
        }
        out += strprintf("#%zu=%s:%c", i, cv.lastVal.c_str(), st);
    }
    return out;
}

std::string
FrontierState::signature()
{
    settle();
    // Keys are ranked by text once, as they are interned; each call
    // then walks that order and emits the live ones.
    std::size_t ranked = keyOrder.size();
    if (ranked < keys.size()) {
        keyTexts.resize(keys.size());
        for (std::size_t k = ranked; k < keys.size(); k++) {
            keyOrder.push_back(static_cast<std::uint32_t>(k + 1));
            formatKey(keyOrder.back());
        }
        auto byText = [&](std::uint32_t a, std::uint32_t b) {
            return keyTexts[a - 1] < keyTexts[b - 1];
        };
        std::sort(keyOrder.begin() + ranked, keyOrder.end(), byText);
        std::inplace_merge(keyOrder.begin(), keyOrder.begin() + ranked,
                           keyOrder.end(), byText);
    }
    std::string sig;
    for (KeyKind kind : {KeyKind::InFlight, KeyKind::Inconsistent}) {
        if (kind == KeyKind::Inconsistent)
            sig += '|';
        for (std::uint32_t k : keyOrder) {
            if (keyCount[k - 1] && heads[keys[k - 1] >> 32].kind == kind) {
                sig += keyTexts[k - 1];
                sig += ';';
            }
        }
    }
    return sig + commitValues();
}

void
FrontierState::forEachInFlight(
    const std::function<void(Addr, const FrontierCell &)> &fn) const
{
    for (const auto &[idx, c] : cells) {
        if (c.st != CellState::Persisted)
            fn(idx * gran, c);
    }
}

void
FrontierState::forEachUndecided(
    const std::function<void(Addr, const FrontierCell &)> &fn) const
{
    for (const auto &[idx, c] : cells) {
        if (!c.tail.empty())
            fn(idx * gran, c);
    }
}

std::string
equivalenceKey(const trace::SrcLoc &at, FrontierState &st)
{
    return at.str() + '|' + st.signature();
}

std::uint64_t
samplerStream(const std::string &key)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a 64
    for (char ch : key)
        h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    return h;
}

} // namespace xfd::lint
