/**
 * @file
 * Detection configuration knobs.
 *
 * Defaults match the paper's described behaviour; the non-default
 * settings exist for the ablation benchmarks (see DESIGN.md §5).
 */

#ifndef XFD_CORE_CONFIG_HH
#define XFD_CORE_CONFIG_HH

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <string>

namespace xfd::core
{

/**
 * Persistency model the shadow PM (and everything downstream of it)
 * assumes of the hardware. Parsed from DetectorConfig::pmModel
 * ("clwb", "eadr").
 */
enum class PersistencyModel
{
    /**
     * ADR-era x86: stores persist only after an explicit CLWB/CLFLUSH
     * writeback followed by an SFENCE (the paper's model, Fig. 9).
     */
    Clwb,
    /**
     * eADR / CXL flush-free persistency: the persistence domain
     * covers the caches, so every store is durable on arrival.
     * Flush-omission ceases to be a bug class; ordering and semantic
     * (commit-protocol) bugs remain.
     */
    Eadr,
};

/**
 * Tuning and ablation switches for a detection campaign.
 *
 * This struct is the single source of truth for detector knobs: every
 * field has a row in the descriptor table in config_flags.cc, which
 * drives xfdetect's flag parsing, its --help text, and the config
 * echo inside the xfd-stats-v1 JSON document. Adding a field without
 * a table row fails the DetectorFlagTable coverage test.
 */
struct DetectorConfig
{
    /**
     * Paper optimization (2): do not inject a failure point between two
     * ordering points with no PM operations in between.
     */
    bool elideEmptyFailurePoints = true;

    /**
     * Paper optimization (1): check only the first post-failure read of
     * each location modified pre-failure; later reads give the same
     * answer.
     */
    bool firstReadOnly = true;

    /**
     * Inject failure points at ordering points inside PM-library code.
     * The paper injects one failure point per fence-bearing library
     * function; tracking every internal fence is strictly finer
     * coverage (it is how the pool-creation bug, §6.3.2 bug 4, shows
     * up inside the library itself).
     */
    bool failureAtInternalFences = true;

    /** Shadow-PM cell granularity in bytes (1, 2, 4 or 8). */
    unsigned granularity = 1;

    /**
     * Extension beyond the paper: when set, a location covered by a
     * commit variable must *also* be persisted for a post-failure read
     * to pass; the paper's check order ("reading a consistent location
     * is certainly bug-free") can miss an unflushed-but-committed
     * write.
     */
    bool strictPersistCheck = false;

    /** Report performance bugs (redundant flushes, duplicate TX_ADD). */
    bool reportPerformanceBugs = true;

    /** Upper bound on injected failure points (0 = unlimited). */
    std::size_t maxFailurePoints = 0;

    /**
     * Backend descriptor: how failure points are scheduled. Exec
     * pools are always restored by the page-granular delta engine
     * (XFD_DELTA_VALIDATE=1 checks every restore against the full
     * image). One of
     *
     *  - "delta":   one recovery run per failure point (the default);
     *  - "batched": frontier-signature batching — failure points the
     *               lint pass proves equivalent (same ordering-point
     *               location, identical frontier signature) fold into
     *               one representative run, and the worker pool pulls
     *               groups dynamically.
     *
     * Findings are byte-identical across both modes; the equivalence
     * suites (test_delta_image, test_batch_sched) and the oracle
     * differential campaign enforce that.
     */
    std::string backend = "delta";

    /**
     * Persistency-model descriptor: what the hardware guarantees
     * about store durability. One of
     *
     *  - "clwb": ADR-era x86 — stores persist only after an explicit
     *            writeback (CLWB/CLFLUSH) plus SFENCE. The paper's
     *            model and the default.
     *  - "eadr": eADR / CXL flush-free persistency — the persistence
     *            domain covers the caches, so stores are durable on
     *            arrival. Flushes become no-ops (neither required nor
     *            reported as redundant) and flush-omission findings
     *            vanish; ordering and commit-protocol semantic bugs
     *            are preserved.
     *
     * Threads through the shadow-PM FSM, the crash-image builder, the
     * failure planner, the lint frontier rules, and the oracle's
     * per-cell tail model; the oracle differential campaign enforces
     * agreement under both models.
     */
    std::string pmModel = "clwb";

    /** Delta restore granularity in bytes (power of two >= 64). */
    std::size_t deltaPageSize = 4096;

    /**
     * Resync checkpoint cadence: after this many consecutive
     * delta restores, resync from scratch so error recovery and
     * drift stay bounded (0 = checkpoint only at chunk starts).
     */
    std::size_t deltaCheckpointInterval = 64;

    /**
     * Collect observability counters (shadow-FSM transition counts,
     * per-op trace volumes, latency histograms). Increments are plain
     * adds, but perf-sensitive callers can turn them off; defining
     * XFD_STATS_NOOP (CMake option XFD_DISABLE_STATS) compiles them
     * out entirely.
     */
    bool collectStats = true;

    /**
     * Mutation campaign (src/mutate): empty = off. "all" enables
     * every operator, "quick" the fast drop_flush/drop_fence pair;
     * otherwise a comma-separated operator list. When set, xfdetect
     * runs a scored fault-injection campaign instead of a single
     * detection campaign.
     */
    std::string mutateOps;

    /** Seed for deterministic mutant subsampling (with a cap set). */
    std::size_t mutationSeed = 42;

    /** Cap on mutants per operator (0 = run every enumerated one). */
    std::size_t mutationMaxPerOp = 0;

    /**
     * Crash-state oracle (src/oracle): empty = off. "exhaustive"
     * enumerates every legal persisted-subset of the crash image at
     * each failure point (frontiers larger than oracleFrontierLimit
     * fall back to seeded sampling); "sample:<n>" caps candidates at
     * <n> seeded-random legal subsets per failure point. When set,
     * xfdetect cross-checks the detector's per-failure-point verdicts
     * against the oracle's and reports disagreements.
     */
    std::string oracleMode;

    /**
     * Exhaustive-enumeration bound: a failure point with more
     * in-flight write events than this is sampled instead of
     * enumerated (the state space is 2^frontier).
     */
    std::size_t oracleFrontierLimit = 8;

    /**
     * Directory for replayable disagreement artifacts (serialized
     * pre-trace plus one JSON descriptor per disagreeing failure
     * point). Empty = do not write artifacts.
     */
    std::string oracleArtifactDir;

    /**
     * Crash-state exploration mode: which candidate crash images the
     * driver executes recovery on per failure point. One of
     *
     *  - "anchor" (or empty): only the paper's footnote-3 all-updates
     *    image — the classic single-candidate campaign;
     *  - "durable": instead of the anchor, only the image a real crash
     *    leaves when no in-flight write persisted (the all-zero mask
     *    of the cell model). Commit-window semantic verdicts are
     *    suppressed: they assume recovery observes the latest commit
     *    write, which only the all-updates image guarantees. Under
     *    eADR every store is durable on arrival, so this image is the
     *    working image;
     *  - "sample:<n>": additionally up to <n> seeded-random legal
     *    persisted-subsets of the write frontier (per-cell prefix
     *    closure, same enumeration as the oracle);
     *  - "exhaustive": every legal subset for frontiers within
     *    oracleFrontierLimit, sampling above it.
     *
     * Findings only reachable on a partial image carry partial-image
     * provenance (persistedMask with cleared bits) and surface as
     * campaign.crash_states.* stats. Structurally identical candidates
     * across failure points (same ordering-point location, same lint
     * frontier signature, same mask) execute once. The durable tier
     * runs one candidate per failure point and neither prunes nor
     * counts towards those stats. Under the eADR model frontiers are
     * empty, so sample and exhaustive degenerate to the anchor.
     */
    std::string crashStates;

    /** Seed for the per-failure-point crash-state sampler. */
    std::size_t crashStatesSeed = 42;

    /**
     * Static lint pass (src/lint): empty = off. "all" enables every
     * rule; otherwise a comma-separated list of rule ids (XL01..XL08)
     * or names (redundant_writeback, ...). Reporting only — campaign
     * findings are unchanged.
     */
    std::string lintRules;

    /**
     * Repair advisor (src/fix): empty = off. When set, xfdetect runs
     * a fix campaign instead of a single detection campaign: the
     * broken baseline is detected and linted, a repair plan is
     * synthesized per finding/diagnostic, and each plan is applied as
     * an inverse mutation and machine-checked by re-running the
     * campaign. "all" checks every plan; a finding id ("F3") or plan
     * id ("R2") checks only the plans targeting it. Incompatible with
     * mutateOps (both repurpose the campaign loop).
     */
    std::string fixTargets;

    /**
     * Jaaru-style same-value write elision at trace-emit time: a
     * store whose bytes equal the current memory contents cannot
     * change any crash image, so the runtime drops its trace entry
     * (the pool is still written). Off by default — eliding also
     * drops any *findings* anchored on such writes (arguably false
     * positives, but a behaviour change), so it is an opt-in
     * trace-volume optimization.
     */
    bool elideSameValueWrites = false;

    /**
     * Live telemetry (src/obs/live): per-second sliding-window rate
     * counters and latency windows fed from the campaign loop,
     * snapshottable mid-run. Off by default — a campaign without
     * --live/--live-port/--live-jsonl pays nothing beyond one atomic
     * load per failure point.
     */
    bool liveTelemetry = false;

    /**
     * Serve live telemetry over HTTP on 127.0.0.1:<port> (Prometheus
     * text /metrics, JSON /snapshot). 0 = no server. Implies
     * liveTelemetry.
     */
    std::size_t livePort = 0;

    /**
     * Stream one live-snapshot JSON line per second (plus one final
     * line) to this file. Empty = off. Implies liveTelemetry.
     */
    std::string liveJsonlPath;

    /** Whether any live-telemetry output was requested. */
    bool
    liveRequested() const
    {
        return liveTelemetry || livePort != 0 ||
               !liveJsonlPath.empty();
    }

    /** Whether @p s is a backend descriptor ("delta", "batched"). */
    static bool
    validBackend(const std::string &s)
    {
        return s.empty() || s == "delta" || s == "batched";
    }

    /**
     * Whether signature batching folds failure points (batched). Any
     * other string runs the delta schedule; flag parsing rejects an
     * unknown one before it can get this far.
     */
    bool
    batchingOn() const
    {
        return backend == "batched";
    }

    /**
     * Parse @p s as a persistency-model descriptor. @return true and
     * set @p model on success, false on an unknown descriptor.
     */
    static bool
    parsePmModel(const std::string &s, PersistencyModel &model)
    {
        if (s == "clwb" || s.empty())
            model = PersistencyModel::Clwb;
        else if (s == "eadr")
            model = PersistencyModel::Eadr;
        else
            return false;
        return true;
    }

    /**
     * The parsed persistency model. An unknown string degrades to
     * Clwb here; flag parsing rejects it before it can get this far.
     */
    PersistencyModel
    pmModelEnum() const
    {
        PersistencyModel m = PersistencyModel::Clwb;
        parsePmModel(pmModel, m);
        return m;
    }

    /** Whether the flush-free eADR/CXL model is selected. */
    bool
    eadrOn() const
    {
        return pmModelEnum() == PersistencyModel::Eadr;
    }

    /**
     * Parse @p s as a crash-states descriptor. @return true (setting
     * @p exhaustive / @p sampleCount for the partial modes) on
     * success, false on an unknown descriptor.
     */
    static bool
    parseCrashStates(const std::string &s, bool &exhaustive,
                     std::size_t &sampleCount)
    {
        if (s.empty() || s == "anchor" || s == "durable") {
            exhaustive = false;
            sampleCount = 0;
            return true;
        }
        if (s == "exhaustive") {
            exhaustive = true;
            return true;
        }
        if (s.rfind("sample:", 0) == 0) {
            const std::string arg = s.substr(7);
            if (arg.empty())
                return false;
            char *end = nullptr;
            unsigned long n =
                std::strtoul(arg.c_str(), &end, 10);
            if (end == nullptr || *end != '\0' || n == 0)
                return false;
            exhaustive = false;
            sampleCount = n;
            return true;
        }
        return false;
    }

    /** Whether partial crash-state exploration is requested. */
    bool
    crashStatesOn() const
    {
        return !crashStates.empty() && crashStates != "anchor" &&
               !durableTier();
    }

    /** Whether recovery runs on the durable image, not the anchor. */
    bool
    durableTier() const
    {
        return crashStates == "durable";
    }
};

} // namespace xfd::core

#endif // XFD_CORE_CONFIG_HH
