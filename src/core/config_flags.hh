/**
 * @file
 * Descriptor table for DetectorConfig command-line flags.
 *
 * One row per DetectorConfig field that is user-settable from
 * xfdetect. The same table drives three things that used to drift
 * apart (a flag with no help line, a config knob missing from the
 * stats export):
 *
 *  - flag parsing        (findDetectorFlag + applyDetectorFlag),
 *  - the --help text     (detectorFlagHelp),
 *  - the "config" echo inside xfd-stats-v1 (writeConfigJson).
 */

#ifndef XFD_CORE_CONFIG_FLAGS_HH
#define XFD_CORE_CONFIG_FLAGS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hh"

namespace xfd::obs
{
class JsonWriter;
}

namespace xfd::core
{

/**
 * Maps one command-line flag onto one DetectorConfig field. Exactly
 * one of the member pointers is non-null; it selects the field type.
 */
struct ConfigFlagDesc
{
    /** Flag spelling, e.g. "--no-elision". */
    const char *flag;
    /** Value placeholder for --help ("<n>"), null for switches. */
    const char *arg;
    /** One-line help text. */
    const char *help;
    /** Key in the xfd-stats-v1 "config" object. */
    const char *jsonKey;

    bool DetectorConfig::*boolField = nullptr;
    /** Value a bool switch stores (false for --no-* flags). */
    bool boolValue = true;
    unsigned DetectorConfig::*uintField = nullptr;
    std::size_t DetectorConfig::*sizeField = nullptr;
    std::string DetectorConfig::*stringField = nullptr;

    /**
     * For flags whose value is optional ("--mutate[=<ops>]"): the
     * string stored when the flag appears bare. Such flags never
     * consume the next argv word; an explicit value arrives as
     * --flag=value.
     */
    const char *impliedValue = nullptr;

    bool
    takesValue() const
    {
        return arg != nullptr && impliedValue == nullptr;
    }
};

/** The full flag table, one row per user-settable config field. */
const std::vector<ConfigFlagDesc> &detectorFlagTable();

/** @return the row for @p flag, or null if no such flag exists. */
const ConfigFlagDesc *findDetectorFlag(const char *flag);

/**
 * Apply one parsed flag to @p cfg. @p value is the argument string
 * for value-taking rows (parsed base-10), ignored for switches.
 * @return empty on success, else a message naming the flag and the
 *         rejected value (@p cfg is left unchanged).
 */
std::string applyDetectorFlag(const ConfigFlagDesc &d,
                              DetectorConfig &cfg, const char *value);

/** Formatted help lines for every row (the --help detector section). */
std::string detectorFlagHelp();

/**
 * Emit the current value of every table row as one JSON object — the
 * "config" echo of the xfd-stats-v1 document.
 */
void writeConfigJson(const DetectorConfig &cfg, obs::JsonWriter &w);

} // namespace xfd::core

#endif // XFD_CORE_CONFIG_FLAGS_HH
