/**
 * @file
 * The benchmark's workloads and the seeded generator of their
 * campaign lists.
 *
 * A workload is a list of rounds; a round is a list of draws; a draw
 * is one detection campaign, described by value so a worker process
 * can rebuild it: a bug-suite case, or a clean program run with a
 * drawn op count, workload seed and pool size. The same --seed gives
 * the same list, and the number of rounds follows from --seconds, so
 * two commits measured on one seed run identical campaigns.
 */

#ifndef PERFBENCH_DRAW_HH
#define PERFBENCH_DRAW_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One benchmark workload: which campaigns it draws and how they run. */
struct WorkloadSpec
{
    const char *name;
    const char *why;
    /** DetectorConfig::backend of every campaign. */
    const char *backend;
    /** DetectorConfig::elideSameValueWrites. */
    bool elideSameValue;
    /** Campaigns run as oracle::runDifferentialCampaign. */
    bool differential;
    /**
     * Wall budget of one campaign. A campaign past it is killed and
     * counted as failed; the run goes on with a fresh worker.
     */
    double budgetSeconds;
    /**
     * Wall seconds one round took on the reference machine (4-core
     * x86-64 VM, Release build). --seconds over this is the number of
     * rounds, so the work is fixed per seed.
     */
    double nominalRoundSeconds;
    /**
     * Fewest rounds in a run, whatever --seconds says. ci_gate needs
     * three: its tail (the 11th slowest campaign) must fall among the
     * registry's slow wal.* cases, five per round, not at the drop
     * below them, where it swings with the seed and the host.
     */
    unsigned minRounds;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** @return the workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** One campaign, described by value. */
struct Draw
{
    /** Position in the run's campaign list. */
    std::uint32_t id = 0;
    /** Index into bugsuite::allBugCases(); -1 for a clean draw. */
    std::int32_t bugCase = -1;
    /** Index into workloads::workloadNames() (clean draws). */
    std::uint32_t program = 0;
    /** RoI operations (clean draws; bug cases carry their own). */
    std::uint32_t ops = 0;
    /** Workload RNG seed (clean draws). */
    std::uint64_t seed = 0;
    std::uint64_t poolBytes = 0;
};

/**
 * The draw spelled as an xfdetect command line (clean draws) or a
 * bug-suite id, plus the pool size.
 */
std::string describe(const Draw &d);

/**
 * Parse "<program>:<ops>:<seed>" into a clean draw with a 4 MiB
 * pool. @return false on a malformed spec or unknown program.
 */
bool parseDraw(const std::string &spec, Draw &out);

/** The fixed small campaign a worker runs and discards at start. */
Draw warmupDraw();

/**
 * The campaign list of @p rounds rounds of @p w drawn from @p seed,
 * with draw ids assigned in order.
 */
std::vector<Draw> makeDraws(const WorkloadSpec &w, std::uint64_t seed,
                            unsigned rounds);

} // namespace perfbench

#endif // PERFBENCH_DRAW_HH
