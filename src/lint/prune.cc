/**
 * @file
 * Failure-point prunability — the loop-iteration equivalence pass.
 *
 * Adjacent-frontier subset rules prune nothing in practice: the epoch
 * idiom (write; flush; fence) puts writes in every inter-point
 * interval, and elision already removed the no-op fences. What *is*
 * redundant is repetition across loop iterations: the Nth insert
 * fails at the same ordering point, with the same in-flight write
 * sites and the same commit-consistency picture, as the first insert
 * did. Findings deduplicate by source location (core::BugSink keys on
 * reader/writer lines, and recovery failures carry the failure
 * point's own location, equal within a group), so an equal signature
 * at an equal ordering-point location can only reproduce the kept
 * representative's findings.
 */

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "lint/frontier.hh"
#include "lint/lint.hh"

namespace xfd::lint
{

PruneVerdicts
computePruneVerdicts(const trace::TraceBuffer &pre,
                     const std::vector<std::uint32_t> &points,
                     unsigned granularity, bool flushFree)
{
    PruneVerdicts v;
    if (points.empty())
        return v;

    /** A kept representative's frontier identity. */
    struct Rep
    {
        std::uint64_t digest;
        std::string values;
        std::vector<std::uint32_t> keys;
        std::uint32_t seq;
    };
    FrontierState st(granularity, flushFree);
    // Ordering-point location -> kept representatives.
    std::map<std::string, std::vector<Rep>> seen;

    std::size_t next = 0;
    for (const auto &e : pre) {
        if (next < points.size() && e.seq == points[next]) {
            // The failure preempts this entry, so the signature is
            // the state *before* it applies. Equal signatures are
            // equal key sets plus equal commit values; the digest
            // rules out almost every other representative before the
            // key sets are compared exactly.
            auto &reps = seen[strprintf("%s:%u", e.loc.file, e.loc.line)];
            Rep cur{st.keyDigest(), st.commitValues(), st.liveKeys(),
                    e.seq};
            auto match = std::find_if(
                reps.begin(), reps.end(), [&](const Rep &r) {
                    return r.digest == cur.digest &&
                           r.values == cur.values && r.keys == cur.keys;
                });
            if (match != reps.end()) {
                v.pruned.push_back(PruneVerdicts::Pruned{e.seq, match->seq});
            } else {
                reps.push_back(std::move(cur));
                v.kept.push_back(e.seq);
            }
            next++;
        }
        st.apply(e);
        if (next >= points.size())
            break;
    }
    if (next < points.size()) {
        fatal("lint prune: %zu planned point(s) not found in the "
              "trace (first missing seq %u)",
              points.size() - next, points[next]);
    }
    return v;
}

} // namespace xfd::lint
