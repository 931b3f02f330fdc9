/**
 * @file
 * From attempted campaigns to the benchmark's metrics: the
 * end-to-end table, the correctness verdict, the per-layer table, the
 * self-time table, the tracing overhead, the Chrome trace and the
 * JSON result line.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdio>
#include <string>
#include <vector>

#include "probe.hh"

namespace perfbench
{

/** One campaign the benchmark attempted. */
struct Attempt
{
    Draw draw;
    bool traced = false;
    /** Threw, crashed or overran its budget. */
    bool failed = false;
    /** Why it failed. */
    std::string failure;
    Outcome outcome;
};

/** A named number with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

class Report
{
  public:
    Report(const WorkloadSpec &w, bool traced) : spec(w), traced(traced) {}

    void add(Attempt a) { attempts.push_back(std::move(a)); }

    /** Seconds of each repeated set-up; setup_s is their median. */
    std::vector<double> setupSeconds;

    /** Human-readable tables and verdicts. */
    void print(std::FILE *out) const;

    /** The result object, on one line. */
    std::string json() const;

    /** Write every traced span as Chrome trace_event JSON. */
    bool writeChromeTrace(const std::string &path,
                          std::int64_t epochNs) const;

    /** Every attempt, one line each, in draw order. */
    bool writeDrawLog(const std::string &path) const;

  private:
    /** Attempts of one mode (traced or not). */
    std::vector<const Attempt *> select(bool traced) const;

    std::vector<Metric> endToEnd(
        const std::vector<const Attempt *> &set) const;
    std::vector<Metric> perLayer(
        const std::vector<const Attempt *> &set) const;
    std::size_t verdictErrors() const;

    const WorkloadSpec &spec;
    bool traced;
    std::vector<Attempt> attempts;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
