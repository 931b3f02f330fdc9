#include "core/explain.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace xfd::core
{

namespace
{

/** Render one finding's chain, paper-figure style. */
std::string
explainOne(const BugReport &b, std::size_t idx,
           const trace::TraceBuffer *pre)
{
    std::string s = strprintf("=== F%zu: %s ===\n", idx + 1,
                              bugTypeName(b.type));
    if (b.addr || b.size) {
        s += strprintf("  location: addr=%#llx size=%u\n",
                       static_cast<unsigned long long>(b.addr),
                       b.size);
    }
    if (b.writer.line)
        s += strprintf("  writer:   %s\n", b.writer.str().c_str());
    if (b.reader.line)
        s += strprintf("  reader:   %s\n", b.reader.str().c_str());
    if (!b.note.empty())
        s += strprintf("  note:     %s\n", b.note.c_str());

    s += strprintf("  exposed at failure point #%u", b.failurePoint);
    if (pre && b.failurePoint < pre->size()) {
        s += strprintf(" (%s)",
                       (*pre)[b.failurePoint].loc.str().c_str());
    }
    s += strprintf(", seen %u time(s)\n", b.occurrences);

    if (b.frontierSeqs.empty()) {
        s += "  frontier: (none — not tied to a failure point)\n";
        return s;
    }

    bool partial = b.persistedMask.size() && !b.persistedMask.all();
    s += strprintf("  frontier: %zu write(s) in flight at the "
                   "failure point (mask %s%s)\n",
                   b.frontierSeqs.size(),
                   b.persistedMask.toHex().c_str(),
                   partial ? ", partial crash image" : "");
    if (partial) {
        s += "  only a --crash-states partial candidate reaches this "
             "state;\n  the all-updates anchor image never executes "
             "it\n";
    }
    for (std::size_t i = 0; i < b.frontierSeqs.size(); i++) {
        std::uint32_t seq = b.frontierSeqs[i];
        bool persisted = b.persistedMask.test(i);
        std::string loc;
        if (pre && seq < pre->size())
            loc = strprintf("  %s", (*pre)[seq].loc.str().c_str());
        s += strprintf("    [%c] seq %u%s\n", persisted ? 'P' : '-',
                       seq, loc.c_str());
    }
    s += "  [P] = present in the post-failure image, [-] = dropped\n";
    return s;
}

} // namespace

std::string
renderExplain(const CampaignResult &res, const std::string &selector,
              const trace::TraceBuffer *pre, std::string *err)
{
    if (res.findings().empty()) {
        if (err)
            *err = "the campaign produced no findings";
        return "";
    }

    if (selector == "all") {
        std::string s;
        for (std::size_t i = 0; i < res.findings().size(); i++)
            s += explainOne(res.findings()[i], i, pre);
        return s;
    }

    const char *digits = selector.c_str();
    if (*digits == 'F' || *digits == 'f')
        digits++;
    char *endp = nullptr;
    unsigned long n = std::strtoul(digits, &endp, 10);
    if (endp == digits || *endp != '\0' || n == 0 ||
        n > res.findings().size()) {
        if (err) {
            *err = strprintf(
                "no such finding \"%s\" (have F1..F%zu, or \"all\")",
                selector.c_str(), res.findings().size());
        }
        return "";
    }
    return explainOne(res.findings()[n - 1], n - 1, pre);
}

} // namespace xfd::core
