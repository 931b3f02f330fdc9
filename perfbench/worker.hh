/**
 * @file
 * A forked worker process that runs draws under a wall budget.
 *
 * The benchmark process never runs a campaign itself. It forks one
 * worker, which warms up on a discarded campaign and then runs one
 * draw per request, writing each Outcome back over a pipe. The parent
 * waits on that pipe with the workload's budget as the deadline: a
 * campaign that overruns, or a worker that dies, is killed and
 * reaped, counted as failed, and replaced by a fresh worker, so a
 * campaign that never terminates costs one budget and no more.
 */

#ifndef PERFBENCH_WORKER_HH
#define PERFBENCH_WORKER_HH

#include <sys/types.h>

#include "probe.hh"

namespace perfbench
{

class Worker
{
  public:
    /**
     * Fork a worker for @p w and wait until its warm-up campaign has
     * finished (or @p budget seconds passed). ready() tells which.
     */
    Worker(const WorkloadSpec &w, double budget);

    /** Ends the worker and waits for it. */
    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /** The worker is alive and waiting for a draw. */
    bool ready() const { return pid > 0; }

    enum class Result
    {
        Done,    ///< the outcome arrived within the budget
        Overrun, ///< killed at the budget
        Died,    ///< the worker exited or crashed mid-draw
    };

    /** Run @p d in the worker; kills the worker unless Done. */
    Result run(const Draw &d, bool traced, double budget, Outcome &out);

  private:
    /** Read one framed message before @p deadlineNs. */
    Result receive(std::int64_t deadlineNs, std::string &msg);
    void kill();

    pid_t pid = -1;
    int toWorker = -1;
    int fromWorker = -1;
};

} // namespace perfbench

#endif // PERFBENCH_WORKER_HH
