/**
 * @file
 * Descriptor table for the numbers a campaign exports: one row (key,
 * stats-JSON section, description, accessor, merge rule) per number of
 * CampaignStats and, with the same row type, of oracle::DiffReport;
 * derived values are rows too. The stats-JSON writer, the registry
 * mirror and the per-worker merge loop over the rows, so adding a
 * counter takes one struct field plus one row. A row's registry name
 * is "campaign." plus its stats-JSON path (campaign.crash_states.pruned).
 */

#ifndef XFD_CORE_CAMPAIGN_METRICS_HH
#define XFD_CORE_CAMPAIGN_METRICS_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/driver.hh"
#include "obs/json.hh"
#include "obs/stats.hh"

namespace xfd::core
{

/** How runParallel() folds one worker's value into the campaign's. */
enum class Merge : std::uint8_t
{
    Once,      ///< set once by the campaign thread, or derived
    Sum,       ///< summed over workers
    SerialSum, ///< summed in serial runs; a parallel run writes wall time
};

/** One exported number of a campaign-level result struct @p Src. */
template <typename Src>
struct Metric
{
    const char *key; ///< field name inside the section's JSON object
    /** Its JSON object: "" (campaign), crash_states, restore, oracle. */
    const char *section;
    const char *desc;
    bool integral; ///< written as a JSON integer (counts), not a real
    double (*get)(const Src &);
    Merge merge = Merge::Once;
    /** Adds a worker's value into the total (Sum/SerialSum rows). */
    void (*add)(Src &, const Src &) = nullptr;

    std::string
    registryName() const
    {
        return std::string("campaign.") + section + (*section ? "." : "") + key;
    }
};

template <typename> struct MemberOf;
template <typename T, typename C> struct MemberOf<T C::*> { using type = C; };

/**
 * A row stored in the data member reached through @p F0 (and @p F into
 * a nested struct); summed rows add it.
 */
template <auto F0, auto... F,
          typename Src = typename MemberOf<decltype(F0)>::type>
Metric<Src>
fieldMetric(const char *key, const char *section, Merge merge,
            const char *desc)
{
    using T = std::remove_cvref_t<decltype((
        (std::declval<Src &>().*F0) .* ... .* F))>;
    Metric<Src> m{key, section, desc, std::is_integral_v<T>,
                  [](const Src &s) {
                      return static_cast<double>(((s.*F0) .* ... .* F));
                  },
                  merge};
    if (merge != Merge::Once)
        m.add = [](Src &into, const Src &from) {
            ((into.*F0) .* ... .* F) += ((from.*F0) .* ... .* F);
        };
    return m;
}

/** The CampaignStats rows, in stats-JSON order. */
const std::vector<Metric<CampaignStats>> &campaignMetrics();

/**
 * Fold worker @p from into @p into: the Sum rows, the SerialSum rows
 * when @p serial, the phases and the pruned crash candidates (moved).
 */
void mergeWorkerStats(CampaignStats &into, CampaignStats &from,
                      bool serial);

/** Write the @p section rows of @p rows for @p src as JSON fields. */
template <typename Src>
void
writeMetricFields(const std::vector<Metric<Src>> &rows, const char *section,
                  const Src &src, obs::JsonWriter &w)
{
    for (const auto &m : rows) {
        if (std::strcmp(m.section, section) != 0)
            continue;
        if (m.integral)
            w.field(m.key, static_cast<std::uint64_t>(m.get(src)));
        else
            w.field(m.key, m.get(src));
    }
}

/** Mirror every row of @p rows for @p src into @p reg. */
template <typename Src>
void
exportMetrics(const std::vector<Metric<Src>> &rows, const Src &src,
              obs::StatsRegistry &reg)
{
    for (const auto &m : rows)
        reg.scalar(m.registryName(), m.desc).set(m.get(src));
}

/**
 * Mirror the campaignMetrics() rows, crash_states.partial_findings and
 * the campaign.phase.* scalars of the finished @p res into @p reg.
 */
void exportCampaignStats(const CampaignResult &res,
                         obs::StatsRegistry &reg);

} // namespace xfd::core

#endif // XFD_CORE_CAMPAIGN_METRICS_HH
