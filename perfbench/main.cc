/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>] [--draw <program>:<ops>:<seed>]...
 *
 * Generates the workload's campaign list from the seed, sets up a
 * worker several times (setup_s is the median), then runs every draw
 * serially, one campaign at a time, each under the workload's wall
 * budget. Prints the tables of report.hh and, as the last line of
 * stdout, the JSON result: end-to-end metrics with --trace 0,
 * per-layer metrics with --trace 1. --draw appends extra clean draws
 * to the first round, e.g. to replay one campaign under the budget.
 */

#include <signal.h>
#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "draw.hh"
#include "report.hh"
#include "worker.hh"

using namespace perfbench;

namespace
{

/** Set-ups per run; setup_s is their median. */
constexpr int setupRepeats = 15;

/** No campaign starts later than this into a run (exit under 180 s). */
constexpr double startCutoffSeconds = 100;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
                 "[--draw <program>:<ops>:<seed>]...\nworkloads:",
                 why);
    for (const auto &w : allWorkloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseUnsigned(const char *s, unsigned long long &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return *s && *end == '\0' && errno == 0 && s[0] != '-';
}

std::string
failureText(Worker::Result r, double budget, const Outcome &o)
{
    if (r == Worker::Result::Overrun)
        return xfd::strprintf("killed at its %.0f s wall budget", budget);
    if (r == Worker::Result::Died)
        return "worker died mid-campaign";
    return "threw: " + o.firstFinding;
}

} // namespace

int
main(int argc, char **argv)
{
    const WorkloadSpec *spec = nullptr;
    unsigned long long seed = 0;
    unsigned long long seconds = 0;
    unsigned long long trace = 2;
    bool haveSeed = false;
    std::string outDir = ".bench_build/perfbench-out";
    std::vector<Draw> extra;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            spec = findWorkload(v);
            if (!spec)
                usage("unknown workload");
        } else if (a == "--seed") {
            haveSeed = parseUnsigned(v, seed);
            if (!haveSeed)
                usage("bad --seed");
        } else if (a == "--seconds") {
            if (!parseUnsigned(v, seconds) || seconds == 0 || seconds > 3600)
                usage("bad --seconds");
        } else if (a == "--trace") {
            if (!parseUnsigned(v, trace) || trace > 1)
                usage("bad --trace");
        } else if (a == "--out") {
            outDir = v;
        } else if (a == "--draw") {
            Draw d;
            if (!parseDraw(v, d))
                usage("bad --draw");
            extra.push_back(d);
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!spec || !haveSeed || !seconds || trace > 1)
        usage("--workload, --seed, --seconds and --trace are required");
    const bool traced = trace == 1;
    if (mkdir(outDir.c_str(), 0755) != 0 && errno != EEXIST)
        usage("cannot create --out directory");

    signal(SIGPIPE, SIG_IGN);
    xfd::setVerbose(false);
    const std::int64_t epoch = nowNs();
    const unsigned rounds = static_cast<unsigned>(std::max(
        static_cast<double>(spec->minRounds),
        std::round(static_cast<double>(seconds) /
                   spec->nominalRoundSeconds)));
    // Traced, a campaign also pays for the benchmark's probes.
    const double budget = spec->budgetSeconds * (traced ? 2 : 1);

    // Set-up: generate the draw, start a worker, let it run its
    // discarded warm-up campaign. Repeated; the last worker is kept.
    Report report(*spec, traced);
    std::vector<Draw> draws;
    std::unique_ptr<Worker> worker;
    for (int k = 0; k < setupRepeats; k++) {
        worker.reset();
        std::int64_t t0 = nowNs();
        draws = makeDraws(*spec, seed, rounds);
        worker = std::make_unique<Worker>(*spec, budget);
        if (!worker->ready()) {
            std::fprintf(stderr, "perfbench: worker failed to start\n");
            return 1;
        }
        report.setupSeconds.push_back(static_cast<double>(nowNs() - t0) *
                                      1e-9);
    }
    const std::size_t perRound = draws.size() / rounds;
    draws.insert(draws.begin() + static_cast<long>(perRound), extra.begin(),
                 extra.end());
    for (std::size_t i = 0; i < draws.size(); i++)
        draws[i].id = static_cast<std::uint32_t>(i);

    std::printf("perfbench: workload %s, seed %llu, %u round(s) of %zu "
                "draws, budget %.0f s per campaign\n",
                spec->name, seed, rounds, perRound, budget);
    auto attempt = [&](const Draw &d, bool tracedRun) {
        if (!worker->ready()) {
            worker = std::make_unique<Worker>(*spec, budget);
            if (!worker->ready()) {
                std::fprintf(stderr, "perfbench: worker failed to start\n");
                std::exit(1);
            }
        }
        Attempt a;
        a.draw = d;
        a.traced = tracedRun;
        Worker::Result r = worker->run(d, tracedRun, budget, a.outcome);
        a.failed = r != Worker::Result::Done || a.outcome.head.threw;
        if (a.failed) {
            a.failure = failureText(r, budget, a.outcome);
            std::fprintf(stderr, "perfbench: failed: %s: %s\n",
                         describe(d).c_str(), a.failure.c_str());
        }
        return a;
    };

    std::size_t skipped = 0;
    for (const Draw &d : draws) {
        if (static_cast<double>(nowNs() - epoch) * 1e-9 >
            startCutoffSeconds) {
            skipped++;
            continue;
        }
        if (!traced || d.id % 4 != 0) {
            report.add(attempt(d, traced));
            continue;
        }
        // Traced, every fourth draw also runs untraced, in alternating
        // order, to measure the tracing overhead. A draw that fails
        // once is not given a second budget.
        Attempt first = attempt(d, d.id % 8 == 0);
        Attempt second = first;
        second.traced = !first.traced;
        if (!first.failed)
            second = attempt(d, second.traced);
        report.add(std::move(first));
        report.add(std::move(second));
    }
    worker.reset();
    if (skipped) {
        std::printf("perfbench: %zu draws not started: the run passed its "
                    "%.0f s cut-off\n",
                    skipped, startCutoffSeconds);
    }

    std::string tag = outDir + "/" + spec->name + "-" + std::to_string(seed);
    if (!report.writeDrawLog(tag + "-draws.txt"))
        std::fprintf(stderr, "perfbench: cannot write the draw log\n");
    if (traced) {
        if (report.writeChromeTrace(tag + "-trace.json", epoch))
            std::printf("chrome trace: %s-trace.json\n", tag.c_str());
        else
            std::fprintf(stderr, "perfbench: cannot write the trace\n");
    }
    report.print(stdout);
    std::printf("%s\n", report.json().c_str());
    return 0;
}
