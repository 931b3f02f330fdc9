/**
 * @file
 * Checker for the static lint pass end to end (ctest cli_lint):
 *
 *   check_lint <clean-lint.json> <planted-lint.json> <batched.json>
 *
 * clean-lint.json is the xfd-lint-v1 document of a clean btree
 * campaign: no diagnostics, and at least a fifth of the planned
 * failure points prunable. planted-lint.json comes from the planted
 * duplicate-TX_ADD performance bug: rule XL02 hits, and every
 * diagnostic is an XL02 one. batched.json is the stats document of a
 * --backend=batched campaign under the differential oracle: points
 * were folded, the oracle re-checked folded points, and it agrees
 * with the detector everywhere (agreement 1.0).
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
    require(doc.at("schema").str == "xfd-lint-v1",
            "clean: schema == xfd-lint-v1");
    require(doc.at("diagnostics").kind == Json::Arr &&
                doc.at("diagnostics").arr.empty(),
            "clean: diagnostics == []");
    const Json &prune = doc.at("prune");
    require(prune.at("points").num > 0, "clean: prune.points > 0");
    require(prune.at("ratio").num >= 0.2, "clean: prune.ratio >= 0.2");
}

void
checkPlanted(const Json &doc)
{
    require(doc.at("hits").at("XL02").num > 0, "planted: hits.XL02 > 0");
    for (const Json &d : doc.at("diagnostics").arr) {
        require(d.at("rule").str == "XL02",
                "planted: every diagnostic is XL02, saw " +
                    d.at("rule").str);
    }
}

void
checkBatched(const Json &doc)
{
    require(doc.at("campaign").at("lint_pruned_points").num > 0,
            "batched: campaign.lint_pruned_points > 0");
    const Json &o = doc.at("oracle");
    require(o.at("pruned_rechecked").num > 0,
            "batched: oracle.pruned_rechecked > 0");
    require(o.at("disagreements").num == 0,
            "batched: oracle.disagreements == 0");
    require(o.at("agreement_rate").num == 1.0,
            "batched: oracle.agreement_rate == 1.0");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 4) {
        std::fprintf(stderr,
                     "usage: %s <clean-lint.json> <planted-lint.json> "
                     "<batched.json>\n",
                     argv[0]);
        return 2;
    }
    try {
        checkClean(loadJson(argv[1]));
        checkPlanted(loadJson(argv[2]));
        checkBatched(loadJson(argv[3]));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::printf("lint smoke test OK\n");
    return 0;
}
