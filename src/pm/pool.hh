/**
 * @file
 * DRAM-emulated persistent-memory pool.
 *
 * The paper evaluates on Intel DCPMM mounted DAX; we do not have that
 * hardware, so the pool is a DRAM buffer with a *deterministic* virtual
 * base address (the paper itself pins pool addresses across executions
 * with PMEM_MMAP_HINT, and its artifact explicitly supports emulated
 * PM). All detector logic operates on pool-relative virtual addresses
 * (xfd::Addr), never on host pointers, so the emulation is transparent.
 */

#ifndef XFD_PM_POOL_HH
#define XFD_PM_POOL_HH

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace xfd::pm
{

class PmImage;

/**
 * Thrown when a PM address (typically a corrupted persistent pointer
 * read after a failure) does not resolve inside the pool — the
 * emulation's equivalent of the segmentation fault the paper's
 * Figure 1 example can suffer during resumption. The detection driver
 * catches it and records the post-failure crash.
 */
struct BadPmAccess
{
    Addr addr;
    std::size_t size;
};

/**
 * An emulated persistent-memory pool: a contiguous byte buffer exposed
 * at a fixed virtual address range [base, base + size).
 */
class PmPool
{
  public:
    /**
     * @param size pool capacity in bytes
     * @param base first virtual PM address of the pool
     */
    explicit PmPool(std::size_t size, Addr base = defaultPoolBase);

    PmPool(const PmPool &) = delete;
    PmPool &operator=(const PmPool &) = delete;

    Addr base() const { return baseAddr; }
    std::size_t size() const { return bytes.size(); }
    AddrRange range() const { return {baseAddr, baseAddr + bytes.size()}; }

    /** @return whether the pool address space contains @p a. */
    bool contains(Addr a) const { return range().contains(a); }

    /** @return whether [a, a+n) lies fully inside the pool. */
    bool
    contains(Addr a, std::size_t n) const
    {
        return a >= baseAddr && a + n <= baseAddr + bytes.size();
    }

    /**
     * Translate a PM address to a host pointer.
     * @throw BadPmAccess when [a, a+n) is not inside the pool.
     */
    void *
    toHost(Addr a, std::size_t n = 1)
    {
        if (!contains(a, n ? n : 1))
            throw BadPmAccess{a, n};
        return bytes.data() + (a - baseAddr);
    }

    const void *
    toHost(Addr a, std::size_t n = 1) const
    {
        return const_cast<PmPool *>(this)->toHost(a, n);
    }

    /**
     * Translate a host pointer into the pool to its PM address.
     * @throw BadPmAccess for pointers outside the pool — typically a
     *        field access through a corrupted/null persistent pointer.
     */
    Addr
    toAddr(const void *p) const
    {
        auto *b = static_cast<const std::uint8_t *>(p);
        if (b < bytes.data() || b >= bytes.data() + bytes.size())
            throw BadPmAccess{0, 0};
        return baseAddr + static_cast<Addr>(b - bytes.data());
    }

    /** @return whether a host pointer points into this pool. */
    bool
    hosts(const void *p) const
    {
        auto *b = static_cast<const std::uint8_t *>(p);
        return b >= bytes.data() && b < bytes.data() + bytes.size();
    }

    /** Typed view of the pool at byte offset @p off. */
    template <typename T>
    T *
    at(std::size_t off)
    {
        if (off + sizeof(T) > bytes.size())
            panic("pool offset %zu overruns pool", off);
        return reinterpret_cast<T *>(bytes.data() + off);
    }

    /** Zero the whole pool (fresh-device state). */
    void wipe() { std::memset(bytes.data(), 0, bytes.size()); }

    /** Capture a byte-exact snapshot of the pool contents. */
    PmImage snapshot() const;

    /** Overwrite the pool contents from a snapshot. */
    void restore(const PmImage &img);

    /** Raw storage access, used by PmImage and the failure injector. */
    std::uint8_t *data() { return bytes.data(); }
    const std::uint8_t *data() const { return bytes.data(); }

    /**
     * @name Dirty-page tracking
     * The delta-image engine needs to know which pages a post-failure
     * execution soiled so the next failure point can restore only
     * those. The instrumented runtime calls markDirty() on every
     * mutation path; with tracking disabled (the default) the call is
     * a single predictable branch. Flags are relaxed atomics so
     * multi-threaded workload stages may mark concurrently.
     * @{
     */

    /** Start tracking writes at @p pageSize granularity (power of 2). */
    void enableDirtyTracking(std::size_t pageSize);

    /** Stop tracking and drop the page map. */
    void disableDirtyTracking();

    /** @return the tracking page size, 0 when tracking is disabled. */
    std::size_t trackingPageSize() const { return pageSz; }

    /** Record that [a, a+n) was written (no-op unless tracking). */
    void
    markDirty(Addr a, std::size_t n)
    {
        if (pageSz == 0 || n == 0 || a < baseAddr)
            return;
        std::size_t first = (a - baseAddr) >> pageShift;
        std::size_t last = (a - baseAddr + n - 1) >> pageShift;
        for (std::size_t p = first; p <= last && p < numPages; p++)
            dirtyMap[p].store(1, std::memory_order_relaxed);
    }

    /** Move the dirty-page set into @p out (union) and clear the map. */
    void drainDirtyPages(std::set<std::uint32_t> &out);

    /** Clear the dirty-page map (after a full restore). */
    void clearDirtyPages();

    /** @return number of pages currently marked dirty. */
    std::size_t dirtyPageCount() const;

    /** @} */

  private:
    Addr baseAddr;
    std::vector<std::uint8_t> bytes;
    /** Dirty-page map; allocated only while tracking is enabled. */
    std::unique_ptr<std::atomic<std::uint8_t>[]> dirtyMap;
    std::size_t pageSz = 0;
    unsigned pageShift = 0;
    std::size_t numPages = 0;
};

/**
 * A typed persistent pointer: stores an absolute PM address, the idiom
 * real PM programs use (PMDK PMEMoid offsets) so that pointers stored
 * *inside* PM stay valid across restarts. Null is address 0.
 */
template <typename T>
class PPtr
{
  public:
    PPtr() = default;
    explicit PPtr(Addr a) : addr_(a) {}

    Addr addr() const { return addr_; }
    bool null() const { return addr_ == 0; }
    explicit operator bool() const { return addr_ != 0; }

    /**
     * Resolve against a pool.
     * @throw BadPmAccess when the pointee does not fit in the pool.
     */
    T *
    get(PmPool &pool) const
    {
        return addr_ ? static_cast<T *>(pool.toHost(addr_, sizeof(T)))
                     : nullptr;
    }

    /**
     * Resolve for a dereference: like get(), but a null pointer
     * throws the BadPmAccess{0, 0} a field access through it would
     * raise in PmPool::toAddr, instead of forming a member access
     * through nullptr. A torn structure can hand recovery a null
     * link.
     */
    T *
    deref(PmPool &pool) const
    {
        if (!addr_)
            throw BadPmAccess{0, 0};
        return get(pool);
    }

    bool operator==(const PPtr &o) const = default;

  private:
    Addr addr_ = 0;
};

} // namespace xfd::pm

#endif // XFD_PM_POOL_HH
