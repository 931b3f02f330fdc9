#include "draw.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bugsuite/registry.hh"
#include "common/rng.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t mib = std::uint64_t{1} << 20;

/** Workload seeds are drawn from [0, seedRange). */
constexpr std::uint64_t seedRange = 1000;

template <typename T>
void
shuffle(std::vector<T> &v, xfd::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * @p n values evenly spaced over [lo, hi], ends included, in seeded
 * order. Every program gets the same grid of op counts and pool sizes
 * in every run, so the mix of cheap and expensive campaigns does not
 * move with the seed; the seed picks the pairings, the order and the
 * workload seeds.
 */
std::vector<std::uint64_t>
grid(std::size_t n, std::uint64_t lo, std::uint64_t hi, xfd::Rng &rng)
{
    std::vector<std::uint64_t> out(n);
    for (std::size_t i = 0; i < n; i++) {
        out[i] = n == 1 ? (lo + hi) / 2
                        : lo + ((hi - lo) * i + (n - 1) / 2) / (n - 1);
    }
    shuffle(out, rng);
    return out;
}

/** Clean draws of every program, @p perRound per program and round. */
void
addCleanDraws(std::vector<std::vector<Draw>> &rounds, unsigned perRound,
              std::uint64_t opsLo, std::uint64_t opsHi,
              std::uint64_t poolLoMiB, std::uint64_t poolHiMiB,
              xfd::Rng &rng)
{
    const std::size_t nPrograms = xfd::workloads::workloadNames().size();
    const std::size_t slots = rounds.size() * perRound;
    for (std::size_t p = 0; p < nPrograms; p++) {
        auto ops = grid(slots, opsLo, opsHi, rng);
        auto pool = grid(slots, poolLoMiB, poolHiMiB, rng);
        for (std::size_t s = 0; s < slots; s++) {
            Draw d;
            d.program = static_cast<std::uint32_t>(p);
            d.ops = static_cast<std::uint32_t>(ops[s]);
            d.seed = rng.below(seedRange);
            d.poolBytes = pool[s] * mib;
            rounds[s / perRound].push_back(d);
        }
    }
}

Draw
bugDraw(std::size_t index)
{
    Draw d;
    d.bugCase = static_cast<std::int32_t>(index);
    // runBugCase() runs every case on a 4 MiB pool.
    d.poolBytes = 4 * mib;
    return d;
}

} // namespace

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"ci_gate",
         "whole bug-suite registry plus clean draws at 1-16 MiB pools "
         "under batched: fixed per-campaign costs and pool-size scaling "
         "dominate",
         "batched", true, false, 8.0, 17.0, 3},
        {"deep_roi",
         "clean draws with 40-150 RoI ops under delta: hundreds of "
         "failure points, so per-point restore, recovery and classify "
         "dominate",
         "delta", false, false, 1.0, 1.7, 1},
        {"oracle_diff",
         "one bug-suite case per program as detector-vs-oracle "
         "differential campaigns at the exhaustive tier: the only "
         "workload on the oracle layer",
         "delta", false, true, 30.0, 11.0, 1},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
describe(const Draw &d)
{
    char buf[256];
    if (d.bugCase >= 0) {
        const auto &c = xfd::bugsuite::allBugCases()[d.bugCase];
        std::snprintf(buf, sizeof buf, "bug %s (%s)",
                      c.id.empty() ? c.workload.c_str() : c.id.c_str(),
                      c.workload.c_str());
    } else {
        std::snprintf(
            buf, sizeof buf, "%s --test %u --seed %llu --pool %lluMiB",
            xfd::workloads::workloadNames()[d.program].c_str(), d.ops,
            static_cast<unsigned long long>(d.seed),
            static_cast<unsigned long long>(d.poolBytes / mib));
    }
    return buf;
}

bool
parseDraw(const std::string &spec, Draw &out)
{
    auto c1 = spec.find(':');
    auto c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
    if (c2 == std::string::npos)
        return false;
    const auto names = xfd::workloads::workloadNames();
    auto it = std::find(names.begin(), names.end(), spec.substr(0, c1));
    if (it == names.end())
        return false;
    char *end = nullptr;
    unsigned long ops = std::strtoul(spec.c_str() + c1 + 1, &end, 10);
    if (end != spec.c_str() + c2 || ops == 0 || ops > 100000)
        return false;
    unsigned long long seed = std::strtoull(spec.c_str() + c2 + 1, &end, 10);
    if (*end != '\0' || c2 + 1 == spec.size())
        return false;
    out = Draw{};
    out.program = static_cast<std::uint32_t>(it - names.begin());
    out.ops = static_cast<std::uint32_t>(ops);
    out.seed = seed;
    out.poolBytes = 4 * mib;
    return true;
}

Draw
warmupDraw()
{
    Draw d;
    parseDraw("ctree:3:1", d);
    return d;
}

std::vector<Draw>
makeDraws(const WorkloadSpec &w, std::uint64_t seed, unsigned rounds)
{
    xfd::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::vector<std::vector<Draw>> round(rounds);
    const auto &cases = xfd::bugsuite::allBugCases();
    const std::string name = w.name;

    if (name == "ci_gate") {
        for (auto &r : round)
            for (std::size_t i = 0; i < cases.size(); i++)
                r.push_back(bugDraw(i));
        addCleanDraws(round, 2, 1, 10, 1, 16, rng);
    } else if (name == "deep_roi") {
        addCleanDraws(round, 2, 40, 150, 4, 4, rng);
    } else if (name == "oracle_diff") {
        // One case per program, the first the registry lists. A
        // seeded pick per program made the run's cost swing with the
        // seed (case costs within one program differ up to 5x), so
        // the set is fixed and the seed orders it.
        std::vector<std::string> programs;
        for (std::size_t i = 0; i < cases.size(); i++) {
            if (std::find(programs.begin(), programs.end(),
                          cases[i].workload) != programs.end())
                continue;
            programs.push_back(cases[i].workload);
            for (auto &r : round)
                r.push_back(bugDraw(i));
        }
    }

    std::vector<Draw> out;
    for (auto &r : round) {
        shuffle(r, rng);
        for (auto &d : r) {
            d.id = static_cast<std::uint32_t>(out.size());
            out.push_back(d);
        }
    }
    return out;
}

} // namespace perfbench
