/**
 * @file
 * Shared campaign setup for the test suite.
 *
 * Most detection tests repeat the same four steps: build a fresh pool
 * at the deterministic base, wire a program (or a named workload)
 * into pre/post lambdas, run the driver, and assert on finding
 * classes. This header centralizes that boilerplate so a test states
 * only what is specific to it: the program, the config deltas, and
 * the expected findings.
 */

#ifndef XFD_TESTS_HARNESS_HH
#define XFD_TESTS_HARNESS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "core/campaign_json.hh"
#include "core/driver.hh"
#include "core/observer.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"
#include "workloads/workload.hh"

namespace xfdtest
{

constexpr std::size_t defaultPoolBytes = std::size_t{1} << 22;

/**
 * @p cfg on the delta engine's finest restore schedule: 256-byte pages
 * and a resync after every delta restore. Cross-schedule legs run it
 * beside the default schedule; a binary that sets XFD_DELTA_VALIDATE
 * checks every restore of both against the full image.
 */
inline xfd::core::DetectorConfig
fineRestoreSchedule(xfd::core::DetectorConfig cfg)
{
    cfg.deltaPageSize = 256;
    cfg.deltaCheckpointInterval = 1;
    return cfg;
}

/** Optional knobs for runCampaign()/runWorkload(). */
struct RunOptions
{
    xfd::core::DetectorConfig detector;
    unsigned threads = 1; ///< 1 = serial driver path
    std::size_t poolBytes = defaultPoolBytes;
    xfd::core::CampaignObserver *observer = nullptr;
};

/** Run a detection campaign over @p pre / @p post on a fresh pool. */
inline xfd::core::CampaignResult
runCampaign(xfd::core::ProgramFn pre, xfd::core::ProgramFn post,
            const RunOptions &opt = {})
{
    xfd::pm::PmPool pool(opt.poolBytes);
    xfd::core::Driver driver(pool, opt.detector);
    if (opt.observer)
        driver.setObserver(opt.observer);
    return driver.runParallel(std::move(pre), std::move(post),
                              opt.threads);
}

/** Run a detection campaign over the named workload. */
inline xfd::core::CampaignResult
runWorkload(const std::string &name,
            const xfd::workloads::WorkloadConfig &wcfg,
            const RunOptions &opt = {})
{
    auto w = xfd::workloads::makeWorkload(name, wcfg);
    return runCampaign(
        [&](xfd::trace::PmRuntime &rt) { w->pre(rt); },
        [&](xfd::trace::PmRuntime &rt) { w->post(rt); }, opt);
}

/**
 * Findings as a sorted multiset of (type, reader line, writer line,
 * note) — the order-insensitive identity serial/parallel equivalence
 * tests compare.
 */
inline std::vector<std::tuple<int, unsigned, unsigned, std::string>>
fingerprint(const xfd::core::CampaignResult &res)
{
    std::vector<std::tuple<int, unsigned, unsigned, std::string>> out;
    for (const auto &b : res.findings()) {
        out.emplace_back(static_cast<int>(b.type), b.reader.line,
                         b.writer.line, b.note);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Replay knob for the fuzz suites: when XFD_FUZZ_SEED is set, the
 * ReplayFromEnv tests re-run exactly that derived seed (the value a
 * failing fuzz iteration prints). Returns false when unset.
 */
inline bool
fuzzSeedFromEnv(std::uint64_t &out)
{
    const char *s = std::getenv("XFD_FUZZ_SEED");
    if (s == nullptr || *s == '\0')
        return false;
    out = std::strtoull(s, nullptr, 0);
    return true;
}

/** EXPECT_TRUE-able: at least @p atLeast findings of class @p t. */
inline ::testing::AssertionResult
hasFindingOfClass(const xfd::core::CampaignResult &res,
                  xfd::core::BugType t, std::size_t atLeast = 1)
{
    if (res.count(t) >= atLeast)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "expected >= " << atLeast << " finding(s) of class "
           << xfd::core::bugTypeId(t) << ", got " << res.count(t)
           << "\n"
           << res.summary();
}

/** EXPECT_TRUE-able: no findings of class @p t. */
inline ::testing::AssertionResult
hasNoFindingOfClass(const xfd::core::CampaignResult &res,
                    xfd::core::BugType t)
{
    if (res.count(t) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "expected no findings of class " << xfd::core::bugTypeId(t)
           << ", got " << res.count(t) << "\n"
           << res.summary();
}

/** EXPECT_TRUE-able: a completely clean campaign. */
inline ::testing::AssertionResult
hasNoFindings(const xfd::core::CampaignResult &res)
{
    if (res.findings().empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "expected a clean campaign\n"
           << res.summary();
}

} // namespace xfdtest

#endif // XFD_TESTS_HARNESS_HH
