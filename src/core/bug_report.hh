/**
 * @file
 * Bug classification and reporting.
 */

#ifndef XFD_CORE_BUG_REPORT_HH
#define XFD_CORE_BUG_REPORT_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/entry.hh"
#include "trace/subset.hh"

namespace xfd::core
{

/** The classes of findings XFDetector produces. */
enum class BugType : std::uint8_t
{
    /**
     * Cross-failure race: the post-failure stage read a location whose
     * pre-failure write is not guaranteed persisted (§3.1).
     */
    CrossFailureRace,

    /**
     * Cross-failure semantic bug: the post-failure stage read data that
     * persisted but violates the crash-consistency mechanism (§3.2).
     */
    CrossFailureSemantic,

    /**
     * Performance bug: redundant writeback or duplicated TX_ADD
     * (reported as a side effect of shadow-PM replay, §5.4).
     */
    Performance,

    /**
     * The post-failure stage failed outright (e.g. the pool refused to
     * open because its metadata was incomplete) — how §6.3.2 bug 4
     * becomes observable under failure injection.
     */
    RecoveryFailure,
};

/** @return human-readable name of @p t. */
const char *bugTypeName(BugType t);

/** Stable identifier of @p t for JSON keys ("cross_failure_race"). */
const char *bugTypeId(BugType t);

/** One deduplicated finding. */
struct BugReport
{
    BugType type = BugType::CrossFailureRace;
    /** First offending PM address (for data bugs). */
    Addr addr = 0;
    std::uint32_t size = 0;
    /** Post-failure reader (or the redundant operation for perf bugs). */
    trace::SrcLoc reader;
    /** Last pre-failure writer of the inconsistent location. */
    trace::SrcLoc writer;
    /** Trace seq of the failure point that exposed the bug. */
    std::uint32_t failurePoint = 0;
    /** Extra context ("uninitialized allocation", "stale", ...). */
    std::string note;
    /** How many reads/failure points hit this same bug. */
    unsigned occurrences = 1;

    /**
     * @name Finding provenance (the causal chain)
     *
     * Captured at the first failure point that exposed the finding:
     * the in-flight (not-durably-persisted) write seqs at that point
     * in ascending order, and which of them the post-failure image
     * actually contained — bit i of the mask corresponds to
     * frontierSeqs[i], the same identity the crash-state oracle uses
     * for candidate images. Under the paper's footnote-3 all-updates
     * image the mask is all ones; under --crash-states=durable all
     * zeros (in-flight means exactly "absent from the durable
     * image"). Empty for findings that are not tied to a failure
     * point (performance bugs from the full-trace scan).
     * @{
     */
    std::vector<std::uint32_t> frontierSeqs;
    trace::SubsetMask persistedMask;
    /** @} */

    /** One-line rendering, paper-style (file:line of reader/writer). */
    std::string str() const;
};

/** Deduplicating collector for findings. */
class BugSink
{
  public:
    /**
     * Record a finding; merged with an existing one when the type and
     * both source lines match (occurrence counts accumulate).
     */
    void report(BugReport r);

    /** Fold another sink's findings into this one. */
    void merge(const BugSink &other);

    /**
     * Apply @p fn to every collected finding — for annotating
     * non-key fields (provenance) in place. Mutating a dedup-key
     * field (type, reader, writer, note) would desync the index.
     */
    void annotate(const std::function<void(BugReport &)> &fn);

    const std::vector<BugReport> &bugs() const { return all; }

    /** @return number of distinct findings of type @p t. */
    std::size_t count(BugType t) const;

    bool empty() const { return all.empty(); }
    std::size_t size() const { return all.size(); }
    void clear();

  private:
    std::vector<BugReport> all;
    std::map<std::string, std::size_t> index;
};

} // namespace xfd::core

#endif // XFD_CORE_BUG_REPORT_HH
