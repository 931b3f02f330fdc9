/**
 * @file
 * Checker for the --crash-states smoke campaigns (ctest
 * cli_crash_states):
 *
 *   check_crash_states <clean.json> <bug.json> <bug-report.json>
 *                      <oracle.json>
 *
 * clean.json is the stats document of a clean btree campaign with
 * exploration on: candidates were explored and nothing was found.
 * bug.json and bug-report.json come from the planted ring-log defect
 * that exists only on partial crash images: it is found as a
 * recovery failure on a partial image, and the report carries a
 * finding whose provenance mask has a cleared bit. oracle.json is
 * the same campaign under the differential oracle: agreement 1.0
 * with at least one partial candidate checked and no disagreement.
 * Exits 0 when every check holds, 1 otherwise.
 */

#include <cstdio>
#include <exception>
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
checkClean(const Json &doc)
{
    const Json &cs = doc.at("campaign").at("crash_states");
    require(cs.at("explored").num > 0, "clean: crash_states.explored > 0");
    require(cs.at("partial_findings").num == 0,
            "clean: crash_states.partial_findings == 0");
    require(doc.at("bugs").at("total").num == 0, "clean: bugs.total == 0");
}

void
checkPlanted(const Json &doc, const Json &report)
{
    const Json &cs = doc.at("campaign").at("crash_states");
    require(cs.at("partial_findings").num > 0,
            "planted: crash_states.partial_findings > 0");
    require(doc.at("bugs").at("by_type").at("recovery_failure").num > 0,
            "planted: bugs.by_type.recovery_failure > 0");
    bool partial = false;
    for (const Json &f : report.at("findings").arr) {
        const Json *prov = f.find("provenance");
        if (!prov)
            continue;
        // A mask that is not all 'f' digits has a cleared bit.
        const std::string &mask = prov->at("persisted_mask").str;
        partial = partial || mask.find_first_not_of('f') !=
                                 std::string::npos ||
                  mask.empty();
    }
    require(partial, "planted: a finding on a partial image");
}

void
checkOracle(const Json &doc)
{
    const Json &o = doc.at("oracle");
    require(o.at("agreement_rate").num == 1.0,
            "oracle: agreement_rate == 1.0");
    require(o.at("partial_checked").num > 0, "oracle: partial_checked > 0");
    require(o.at("partial_disagreements").num == 0,
            "oracle: partial_disagreements == 0");
    require(o.at("crash_pruned_disagreements").num == 0,
            "oracle: crash_pruned_disagreements == 0");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 5) {
        std::fprintf(stderr,
                     "usage: %s <clean.json> <bug.json> "
                     "<bug-report.json> <oracle.json>\n",
                     argv[0]);
        return 2;
    }
    try {
        checkClean(loadJson(argv[1]));
        checkPlanted(loadJson(argv[2]), loadJson(argv[3]));
        checkOracle(loadJson(argv[4]));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::printf("crash-states smoke test OK\n");
    return 0;
}
