/**
 * @file
 * Frontier dataflow over the pre-failure trace — the lint-side mirror
 * of the shadow PM's persistency FSM (core/shadow_pm.cc), without the
 * post-failure read-check machinery.
 *
 * One forward walk maintains, per cell (granularity bytes): the
 * persistency state (Modified / WritebackPending / Persisted), the
 * source location and seq of the last writer, the last-modified
 * timestamp, and the uninitialized flag; plus the commit-variable
 * registry with last / pre-last commit timestamps. Rules query the
 * state *before* an entry applies; the prune pass compares frontier
 * signatures at each planned failure point the same way. Each cell
 * also keeps its tail, the writes not yet guaranteed durable: the
 * crash-state tiers build their write frontiers, prefix chains and
 * durable image from it (see onDecided()), the same per-cell model
 * the crash-state oracle replays independently.
 *
 * The signature is kept incrementally: each cell carries the interned
 * key it contributes (if any), and a live count per key changes only
 * when some cell's key does. A write, alloc or free rekeys its own
 * cells, a fence the pending ones, a commit write the cells whose
 * last write lies in the two commit windows that moved, and a new
 * commit variable or range (rare) the cells it covers — every cell,
 * once, when the default-cover rule starts or ends. Comparing two
 * failure points therefore costs their digests, not a walk over
 * every cell.
 */

#ifndef XFD_LINT_FRONTIER_HH
#define XFD_LINT_FRONTIER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "trace/entry.hh"

namespace xfd::lint
{

/** Persistency state of a tracked cell (untracked = Unmodified). */
enum class CellState : std::uint8_t
{
    Modified,         ///< written, not yet flushed
    WritebackPending, ///< flushed (or ntstore), awaiting a fence
    Persisted,        ///< retired by a fence
};

/** Lint-side shadow cell. */
struct FrontierCell
{
    CellState st = CellState::Modified;
    /** Source of the last write (or allocation). */
    trace::SrcLoc writer;
    std::uint32_t writerSeq = 0;
    /** Timestamp of the last modification (fences increment time). */
    std::int32_t tlast = -1;
    /** Allocated but never explicitly written. */
    bool uninit = false;
    /** Signature key the cell contributes, plus one (0: none). */
    std::uint32_t key = 0;
    /** In flight and outside every commit variable (dataInFlight). */
    bool inflightData = false;
    /**
     * Seqs of the writes applied since the cell last retired,
     * ascending: empty iff the cell's bytes are decided at a crash.
     * A partial crash image may hold any prefix of it.
     */
    std::vector<std::uint32_t> tail;
};

/** The dataflow state machine. */
class FrontierState
{
  public:
    /**
     * @p flushFree selects the eADR/CXL persistency semantics (the
     * lint-side mirror of ShadowPM's model switch): writes land
     * directly in Persisted, flushes are no-ops, and fences only
     * advance the timestamp. Must match the campaign's --pm-model for
     * prune verdicts to stay sound.
     */
    explicit FrontierState(unsigned granularity,
                           bool flushFree = false);

    /** Advance the state past @p e. */
    void apply(const trace::TraceEntry &e);

    /** @name Pre-apply queries used by the rule engine @{ */

    /** Any cell of the line at @p line in state @p st? */
    bool lineHasState(Addr line, CellState st) const;

    /** Any tracked (ever-written) cell in the line at @p line? */
    bool lineTracked(Addr line) const;

    /** Would a fence retire at least one pending cell right now? */
    bool fenceWouldRetire() const;

    /** Any non-commit-variable cell still Modified or Pending? */
    bool dataInFlight() const;

    /** Any cell of [@p a, @p a + @p n) currently WritebackPending? */
    bool rangePending(Addr a, std::uint32_t n) const;

    /** Is @p a inside a registered commit variable? */
    bool isCommitVarAddr(Addr a) const;

    /** Does @p r overlap a registered commit variable? */
    bool overlapsCommitVar(AddrRange r) const;

    /** @} */

    /**
     * Call @p fn with the address of each cell whose bytes become
     * decided: every cell a fence retires, every freed cell with a
     * non-empty tail (its last written value stays), and under the
     * flush-free semantics every written cell (durable on arrival).
     * It runs before the cell's tail is cleared or the cell dropped.
     */
    void
    onDecided(std::function<void(Addr)> fn)
    {
        decided = std::move(fn);
    }

    /** The tracked cell holding @p a, or null. */
    const FrontierCell *cellAt(Addr a) const;

    /**
     * Visit every cell with a non-empty tail (bytes undecided at a
     * crash), in address order.
     */
    void forEachUndecided(
        const std::function<void(Addr, const FrontierCell &)> &fn) const;

    /**
     * Canonical frontier signature for failure-point pruning: the set
     * of (writer file, writer line, uninit, commit class, allocation
     * region) over in-flight cells plus the set of (writer file,
     * writer line, stale, allocation region) over persisted,
     * commit-covered, commit-inconsistent cells, then commitValues().
     * The allocation region — the Alloc site plus the cell's offset
     * inside the live allocation, or "root" for untracked
     * (root-struct) memory — disambiguates a single store statement
     * that aliases structurally different targets (a bucket head in
     * the root object vs. an interior next field of a heap node;
     * child[0] vs. child[1] of one node type): recovery reaches those
     * through different reads, so they must not prune against each
     * other. The commit class (uncovered / covered-consistent /
     * covered-inconsistent) matters because the read check passes a
     * consistent in-flight cell but reports a race on an inconsistent
     * one. Two points with equal signatures at the same
     * ordering-point source location yield the same post-failure
     * finding keys.
     *
     * Materialized by walking the interned keys in text order (each
     * key is ranked once, when first seen) and emitting the live
     * ones. Grouping compares keyDigest(), liveKeys() and
     * commitValues() instead; only the crash-state sampler stream
     * needs the string (see equivalenceKey()).
     */
    std::string signature();

    /**
     * Order-independent digest of the live key sets of signature()
     * (the part before commitValues()). Equal sets give equal
     * digests; O(1), maintained as keys come and go.
     *
     * The key queries are not const: a change of commit-variable
     * coverage that reaches every cell is applied at the first of
     * them, not at each registration.
     */
    std::uint64_t
    keyDigest()
    {
        settle();
        return digest;
    }

    /**
     * The live keys as ascending ids: equal vectors from one
     * FrontierState mean equal key sets of signature(). Ids are only
     * comparable within one state's walk.
     */
    std::vector<std::uint32_t> liveKeys();

    /**
     * Commit-variable values, the tail of signature(): recovery
     * branches on them, so each variable's last committed value plus
     * the persistency state of its first cell (which decides what a
     * realistic crash image holds) is part of a point's identity.
     */
    std::string commitValues() const;

    /**
     * Visit every cell still Modified or WritebackPending (for the
     * unpersisted-at-exit rule), in address order.
     */
    void forEachInFlight(
        const std::function<void(Addr, const FrontierCell &)> &fn) const;

    unsigned granularity() const { return gran; }

    /** Whether the eADR/CXL flush-free semantics are selected. */
    bool flushFree() const { return eadr; }

  private:
    /** Commit variable with its address set and commit timestamps. */
    struct CommitVar
    {
        AddrRange var{0, 0};
        std::vector<AddrRange> ranges;
        std::int32_t tlast = -1;
        std::int32_t tprelast = -1;
        /** Hex of the last commit write's bytes (16-byte cap). */
        std::string lastVal;
    };

    std::uint64_t cellIndex(Addr a) const { return a / gran; }

    /** Cells covering [a, a+n). */
    std::uint64_t
    cellCount(Addr a, std::size_t n) const
    {
        if (n == 0)
            return 0;
        return (a + n - 1) / gran - a / gran + 1;
    }

    /**
     * Commit variable governing @p a: explicit ranges first, then the
     * single-variable default-cover rule (§5.2).
     */
    const CommitVar *coveringVar(Addr a) const;

    /** The variable covering every cell by default, if any. */
    const CommitVar *defaultCover() const;

    /**
     * Rekey the cells whose class a commit write to @p var changed;
     * @p from is the variable's pre-last commit time before it.
     */
    void reclassify(const CommitVar &var, std::int32_t from);

    void applyWrite(const trace::TraceEntry &e);
    void applyFlush(Addr line);
    void applyFence();
    void applyAlloc(const trace::TraceEntry &e);
    void applyFree(const trace::TraceEntry &e);

    /** Which of the two signature sets a key belongs to. */
    enum class KeyKind : std::uint8_t
    {
        InFlight,
        Inconsistent,
    };

    /**
     * One signature entry before formatting (see signature()), less
     * the offset inside the allocation region: the cells of one
     * write share it, so it is interned first and cheaply.
     */
    struct Head
    {
        KeyKind kind = KeyKind::InFlight;
        /** uninit ('u'/'-') in flight, stale ('s'/'-') otherwise. */
        char flag = '-';
        /** Commit class ('n'/'c'/'i'); unused when inconsistent. */
        char commit = 0;
        std::uint32_t writerFile = 0;
        std::uint32_t writerLine = 0;
        /** Alloc site file id, 0 for "root". */
        std::uint32_t siteFile = 0;
        std::uint32_t siteLine = 0;

        bool operator==(const Head &) const = default;
    };

    struct HeadHash
    {
        std::size_t operator()(const Head &h) const;
    };

    /** Content id of a source file name (1-based; 0 is "root"). */
    std::uint32_t fileId(const char *file);

    /** The key cell @p idx contributes now, plus one (0: none). */
    std::uint32_t keyOf(std::uint64_t idx, const FrontierCell &c);

    /** Recompute cell @p idx's key and in-flight data flag. */
    void rekey(std::uint64_t idx, FrontierCell &c);

    /** Rekey every tracked cell whose address is in [lo, hi). */
    void rekeyAddrs(Addr lo, Addr hi);

    /** Rekey every cell if commit coverage changed (coverStale). */
    void settle();

    /** Drop cell @p it with its key and counts. */
    void eraseCell(std::map<std::uint64_t, FrontierCell>::iterator it);

    /** Set a cell's last-write time to now, indexing it by epoch. */
    void touch(std::uint64_t idx, FrontierCell &c);

    /** End of the allocation governing @p a, or @p a if none. */
    Addr governingEnd(Addr a) const;

    /**
     * After the allocation map changed at @p begin, rekey the cells
     * past @p from whose governing allocation may have changed: up to
     * the next allocation, and no further than either governing end.
     */
    void reRegion(Addr begin, Addr from, Addr endBefore);

    /** Format key id @p k into keyTexts. */
    void formatKey(std::uint32_t k);

    unsigned gran;
    /** eADR/CXL flush-free semantics (see the constructor). */
    bool eadr;
    /** Ordered so signatures and exit scans are deterministic. */
    std::map<std::uint64_t, FrontierCell> cells;
    /** Live allocations: begin -> (end, alloc site). */
    std::map<Addr, std::pair<Addr, trace::SrcLoc>> allocs;
    std::vector<CommitVar> commitVars;
    /** Cell indices awaiting retirement at the next fence. */
    std::vector<std::uint64_t> pendingCells;
    std::int32_t ts = 0;

    /** Interned heads, the last one looked up, and its id. */
    std::vector<Head> heads;
    std::unordered_map<Head, std::uint32_t, HeadHash> headIds;
    Head lastHead;
    std::uint32_t lastHeadId = UINT32_MAX;
    /**
     * Interned keys: (head id << 32 | region offset) -> key id, and
     * per key id that pair, its live cell count and formatted text.
     */
    std::unordered_map<std::uint64_t, std::uint32_t> keyIds;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> keyCount;
    std::vector<std::string> keyTexts;
    /** Every interned key id, ascending by text (see signature()). */
    std::vector<std::uint32_t> keyOrder;
    /** XOR of the mixed ids of keys with a nonzero count. */
    std::uint64_t digest = 0;
    /** Interned source file names (index = id - 1). */
    std::vector<std::string> fileNames;
    std::unordered_map<std::string, std::uint32_t> fileByName;
    std::unordered_map<const char *, std::uint32_t> fileByPtr;
    const char *lastFile = nullptr;
    std::uint32_t lastFileId = 0;
    /**
     * Cells by last-write epoch (entries go stale when a cell is
     * rewritten or freed; readers re-check tlast). A commit write
     * rekeys only the epochs its windows moved across.
     */
    std::vector<std::vector<std::uint64_t>> byEpoch;
    /** Cells counted by dataInFlight(). */
    std::size_t dataCells = 0;
    /** Commit coverage changed for every cell since the last settle(). */
    bool coverStale = false;
    /** See onDecided(). */
    std::function<void(Addr)> decided;
};

/**
 * Equivalence-class key of a failure point whose ordering point sits
 * at @p at and whose frontier is @p st: the location plus
 * st.signature(). The detector's crash-state exploration and the
 * oracle's differential campaign both derive their sampler stream
 * from it, so they cannot drift apart.
 */
std::string equivalenceKey(const trace::SrcLoc &at, FrontierState &st);

/** Sampler stream of an equivalence key: its FNV-1a 64 hash. */
std::uint64_t samplerStream(const std::string &key);

} // namespace xfd::lint

#endif // XFD_LINT_FRONTIER_HH
