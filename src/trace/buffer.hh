/**
 * @file
 * Append-only trace FIFO between the frontend and the backend.
 *
 * The paper streams completed trace entries through pre-/post-failure
 * FIFOs so detection overlaps tracing (§5.4); in-process we model the
 * FIFO as an append-only buffer the backend consumes by index.
 */

#ifndef XFD_TRACE_BUFFER_HH
#define XFD_TRACE_BUFFER_HH

#include <cstddef>
#include <vector>

#include "trace/entry.hh"

namespace xfd::trace
{

/** An append-only sequence of trace entries. */
class TraceBuffer
{
  public:
    /** Append @p e, assigning its sequence number. @return the seq. */
    std::uint32_t append(TraceEntry e);

    /**
     * Bulk-append @p n entries from @p batch (moved from), assigning
     * contiguous sequence numbers: the retire half of PmRuntime's
     * fixed-slot emit ring — one call per ring instead of per entry.
     * Storage grows geometrically, so appending a trace of n entries
     * copies O(n) entries in total, whatever the batch size.
     */
    void appendBatch(TraceEntry *batch, std::size_t n);

    std::size_t size() const { return entries.size(); }

    /** Entries the buffer holds room for without reallocating. */
    std::size_t capacity() const { return entries.capacity(); }
    bool empty() const { return entries.empty(); }

    const TraceEntry &operator[](std::size_t i) const { return entries[i]; }

    /** Total bytes of write payload carried (stats/benchmarks). */
    std::size_t payloadBytes() const { return payload; }

    void clear();

    std::vector<TraceEntry>::const_iterator begin() const
    {
        return entries.begin();
    }

    std::vector<TraceEntry>::const_iterator end() const
    {
        return entries.end();
    }

  private:
    std::vector<TraceEntry> entries;
    std::size_t payload = 0;
};

} // namespace xfd::trace

#endif // XFD_TRACE_BUFFER_HH
