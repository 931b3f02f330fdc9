/**
 * @file
 * Checker for the observability exports of one xfdetect campaign run
 * with --threads 4 (ctest cli_stats_json):
 *
 *   check_stats_json <stats.json> <trace.json> <report.json>
 *
 * The stats document must carry the xfd-stats-v1 schema, planned
 * failure points, shadow-FSM edge stats, the delta backend in its
 * config echo and a nonzero restore volume; the Chrome trace must
 * spread failure-point spans over at least two worker tracks; the
 * report must carry the xfd-report-v1 schema. Exits 0 when every
 * check holds, 1 otherwise.
 */

#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>

#include "testutil_json.hh"

namespace
{

using xfdtest::Json;
using xfdtest::loadJson;

void
require(bool ok, const std::string &what)
{
    if (!ok)
        throw std::runtime_error("check failed: " + what);
}

void
checkStats(const Json &stats)
{
    require(stats.at("schema").str == "xfd-stats-v1", "stats schema");
    require(stats.at("campaign").at("failure_points").num > 0,
            "campaign.failure_points > 0");
    bool edge = false;
    for (const auto &[name, stat] : stats.at("stats").obj)
        edge = edge || name.rfind("shadow_fsm.edge.", 0) == 0;
    require(edge, "a shadow_fsm.edge.* stat");
    require(stats.at("config").at("backend").str == "delta",
            "config.backend == \"delta\"");
    const Json &restore = stats.at("restore");
    require(restore.at("pool_bytes").num > 0, "restore.pool_bytes > 0");
    require(restore.at("bytes_copied").num > 0,
            "restore.bytes_copied > 0");
}

void
checkTrace(const Json &trace)
{
    std::set<double> tids;
    for (const Json &e : trace.at("traceEvents").arr) {
        const Json *cat = e.find("cat");
        if (cat && cat->str == "fp")
            tids.insert(e.at("tid").num);
    }
    require(tids.size() >= 2, "fp events on at least 2 tids");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 4) {
        std::fprintf(stderr, "usage: %s <stats.json> <trace.json> "
                             "<report.json>\n", argv[0]);
        return 2;
    }
    try {
        checkStats(loadJson(argv[1]));
        checkTrace(loadJson(argv[2]));
        require(loadJson(argv[3]).at("schema").str == "xfd-report-v1",
                "report schema");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::printf("observability smoke test OK\n");
    return 0;
}
