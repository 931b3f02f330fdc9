/**
 * @file
 * Checker for the delta-restore volume (ctest cli_delta_restore):
 *
 *   check_restore <stats.json>...
 *
 * Each argument is the stats document of one campaign. Its restore
 * engine must have copied less than one whole pool per restore:
 * restore.restore_ratio (bytes copied over restores x pool bytes)
 * is below 1. Exits 0 when every document passes, 1 otherwise.
 */

#include <cstdio>
#include <exception>

#include "testutil_json.hh"

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <stats.json>...\n", argv[0]);
        return 2;
    }
    try {
        for (int i = 1; i < argc; i++) {
            const xfdtest::Json doc = xfdtest::loadJson(argv[i]);
            const xfdtest::Json &r = doc.at("restore");
            double ratio = r.at("restore_ratio").num;
            std::printf("%s: restore_ratio %.4f (%.0f bytes copied)\n",
                        argv[i], ratio, r.at("bytes_copied").num);
            if (!(ratio < 1)) {
                std::fprintf(stderr, "check failed: %s: "
                             "restore.restore_ratio < 1\n", argv[i]);
                return 1;
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}
