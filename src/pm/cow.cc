#include "pm/cow.hh"

#include <cstring>

#include "common/logging.hh"
#include "pm/image.hh"
#include "pm/pool.hh"

namespace xfd::pm
{

CowImage::CowImage(const PmImage &src, std::size_t pageSize)
    : baseAddr(src.base()), totalSize(src.size()), pageSz(pageSize)
{
    if (pageSize == 0 || (pageSize & (pageSize - 1)) != 0)
        panic("cow page size %zu is not a power of two", pageSize);
    std::size_t n = (totalSize + pageSz - 1) / pageSz;
    pages.reserve(n);
    for (std::size_t p = 0; p < n; p++) {
        auto page = std::shared_ptr<std::uint8_t[]>(
            new std::uint8_t[pageSz]);
        std::size_t off = p * pageSz;
        std::size_t len = std::min(pageSz, totalSize - off);
        std::memcpy(page.get(), src.data() + off, len);
        if (len < pageSz)
            std::memset(page.get() + len, 0, pageSz - len);
        pages.push_back(std::move(page));
    }
}

std::uint8_t *
CowImage::mutablePage(std::size_t p)
{
    auto &page = pages[p];
    if (page.use_count() > 1) {
        auto clone = std::shared_ptr<std::uint8_t[]>(
            new std::uint8_t[pageSz]);
        std::memcpy(clone.get(), page.get(), pageSz);
        page = std::move(clone);
    }
    return page.get();
}

void
CowImage::applyWrite(Addr a, const void *src, std::size_t n)
{
    if (a < baseAddr || a + n > baseAddr + totalSize)
        panic("cow image write [%#llx,+%zu) out of range",
              static_cast<unsigned long long>(a), n);
    std::size_t off = a - baseAddr;
    auto *bytes = static_cast<const std::uint8_t *>(src);
    while (n) {
        std::size_t p = off / pageSz;
        std::size_t in_page = off & (pageSz - 1);
        std::size_t len = std::min(n, pageSz - in_page);
        std::memcpy(mutablePage(p) + in_page, bytes, len);
        off += len;
        bytes += len;
        n -= len;
    }
}

void
CowImage::copyFrom(const CowImage &src, Addr a, std::size_t n)
{
    if (src.baseAddr != baseAddr || src.totalSize != totalSize ||
        src.pageSz != pageSz) {
        panic("cow copyFrom between mismatched images");
    }
    if (a < baseAddr || a + n > baseAddr + totalSize)
        panic("cow copyFrom [%#llx,+%zu) out of range",
              static_cast<unsigned long long>(a), n);
    std::size_t off = a - baseAddr;
    while (n) {
        std::size_t p = off / pageSz;
        std::size_t in_page = off & (pageSz - 1);
        std::size_t len = std::min(n, pageSz - in_page);
        if (pages[p] == src.pages[p]) {
            // Still the same physical page — nothing to copy.
        } else if (in_page == 0 && len == pageSz) {
            // Whole-page copy: share the source page instead.
            pages[p] = src.pages[p];
        } else {
            std::memcpy(mutablePage(p) + in_page,
                        src.pages[p].get() + in_page, len);
        }
        off += len;
        n -= len;
    }
}

void
CowImage::copyRange(std::size_t off, std::size_t len,
                    std::uint8_t *dst) const
{
    if (off + len > totalSize)
        panic("cow copyRange [%zu,+%zu) overruns image", off, len);
    while (len) {
        std::size_t p = off / pageSz;
        std::size_t in_page = off & (pageSz - 1);
        std::size_t n = std::min(len, pageSz - in_page);
        std::memcpy(dst, pages[p].get() + in_page, n);
        dst += n;
        off += n;
        len -= n;
    }
}

void
CowImage::copyTo(PmPool &pool) const
{
    if (pool.size() != totalSize || pool.base() != baseAddr)
        panic("copying mismatched cow image into pool");
    copyRange(0, totalSize, pool.data());
}

std::size_t
CowImage::firstMismatch(const std::uint8_t *other) const
{
    for (std::size_t p = 0; p < pages.size(); p++) {
        std::size_t off = p * pageSz;
        std::size_t len = std::min(pageSz, totalSize - off);
        if (std::memcmp(pages[p].get(), other + off, len) == 0)
            continue;
        for (std::size_t i = 0; i < len; i++) {
            if (pages[p].get()[i] != other[off + i])
                return off + i;
        }
    }
    return SIZE_MAX;
}

namespace
{

/** Whether any of the @p n bytes at @p p is nonzero. */
bool
anyNonZero(const std::uint8_t *p, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 * sizeof(std::uint64_t) <= n;
         i += 4 * sizeof(std::uint64_t)) {
        std::uint64_t w[4];
        std::memcpy(w, p + i, sizeof w);
        if (w[0] | w[1] | w[2] | w[3])
            return true;
    }
    for (; i < n; i++) {
        if (p[i])
            return true;
    }
    return false;
}

} // namespace

void
CowImage::collectNonZeroPages(std::size_t pageSize,
                              std::set<std::uint32_t> &out) const
{
    for (std::size_t p = 0; p < pages.size(); p++) {
        const std::uint8_t *bytes = pages[p].get();
        std::size_t off = p * pageSz;
        std::size_t end = off + std::min(pageSz, totalSize - off);
        // One chunk per output page this image page overlaps.
        for (std::size_t at = off; at < end;) {
            std::size_t stop =
                std::min(end, (at / pageSize + 1) * pageSize);
            if (anyNonZero(bytes + (at - off), stop - at))
                out.insert(static_cast<std::uint32_t>(at / pageSize));
            at = stop;
        }
    }
}

std::size_t
CowImage::sharedPageCount() const
{
    std::size_t n = 0;
    for (const auto &p : pages)
        n += p.use_count() > 1;
    return n;
}

} // namespace xfd::pm
