#include "worker.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

namespace perfbench
{

namespace
{

struct Request
{
    Draw draw;
    bool traced = false;
};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Append-only encoder; both ends are the same binary. */
class WireOut
{
  public:
    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        buf.append(reinterpret_cast<const char *>(&v), sizeof v);
    }

    template <typename T>
    void
    putVec(const std::vector<T> &v)
    {
        put<std::uint64_t>(v.size());
        buf.append(reinterpret_cast<const char *>(v.data()),
                   v.size() * sizeof(T));
    }

    void
    putStr(const std::string &s)
    {
        put<std::uint64_t>(s.size());
        buf += s;
    }

    std::string buf;
};

/** Bounds-checked decoder over one message. */
class WireIn
{
  public:
    explicit WireIn(const std::string &m) : msg(m) {}

    template <typename T>
    bool
    get(T &v)
    {
        if (msg.size() - pos < sizeof v)
            return false;
        std::memcpy(&v, msg.data() + pos, sizeof v);
        pos += sizeof v;
        return true;
    }

    template <typename T>
    bool
    getVec(std::vector<T> &v)
    {
        std::uint64_t n = 0;
        if (!get(n) || n > (msg.size() - pos) / sizeof(T))
            return false;
        v.resize(n);
        std::memcpy(v.data(), msg.data() + pos, n * sizeof(T));
        pos += n * sizeof(T);
        return true;
    }

    bool
    getStr(std::string &s)
    {
        std::uint64_t n = 0;
        if (!get(n) || n > msg.size() - pos)
            return false;
        s.assign(msg, pos, n);
        pos += n;
        return true;
    }

  private:
    const std::string &msg;
    std::size_t pos = 0;
};

std::string
encode(const Outcome &o)
{
    WireOut w;
    w.put(o.head);
    w.putStr(o.firstFinding);
    w.putVec(o.pointUs);
    w.putVec(o.backendUs);
    w.putVec(o.recoveryUs);
    w.putVec(o.spans);
    return std::move(w.buf);
}

bool
decode(const std::string &msg, Outcome &o)
{
    WireIn r(msg);
    return r.get(o.head) && r.getStr(o.firstFinding) &&
           r.getVec(o.pointUs) && r.getVec(o.backendUs) &&
           r.getVec(o.recoveryUs) && r.getVec(o.spans);
}

bool
writeAll(int fd, const void *p, std::size_t n)
{
    const char *c = static_cast<const char *>(p);
    while (n) {
        ssize_t r = write(fd, c, n);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        c += r;
        n -= static_cast<std::size_t>(r);
    }
    return true;
}

bool
readAll(int fd, void *p, std::size_t n)
{
    char *c = static_cast<char *>(p);
    while (n) {
        ssize_t r = read(fd, c, n);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        c += r;
        n -= static_cast<std::size_t>(r);
    }
    return true;
}

bool
sendMessage(int fd, const std::string &msg)
{
    std::uint64_t len = msg.size();
    return writeAll(fd, &len, sizeof len) &&
           writeAll(fd, msg.data(), msg.size());
}

/** The worker's side: warm up, then one draw per request. */
[[noreturn]] void
serve(const WorkloadSpec &w, int in, int out, pid_t parent)
{
    // Die with the benchmark, even mid-campaign.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent)
        _exit(1);
    // Anything the library prints goes to stderr; the benchmark's
    // stdout ends with its JSON result line.
    dup2(STDERR_FILENO, STDOUT_FILENO);

    runDraw(w, warmupDraw(), false);
    if (!sendMessage(out, std::string()))
        _exit(1);
    for (;;) {
        Request req;
        if (!readAll(in, &req, sizeof req))
            _exit(0);
        if (!sendMessage(out, encode(runDraw(w, req.draw, req.traced))))
            _exit(1);
    }
}

/** Read @p n bytes from @p fd before @p deadline (steady ns). */
Worker::Result
readBy(int fd, void *p, std::size_t n, std::int64_t deadline)
{
    char *c = static_cast<char *>(p);
    while (n) {
        std::int64_t left = deadline - nowNs();
        if (left <= 0)
            return Worker::Result::Overrun;
        pollfd pfd{fd, POLLIN, 0};
        int pr = poll(&pfd, 1, static_cast<int>(left / 1000000 + 1));
        if (pr < 0 && errno != EINTR)
            return Worker::Result::Died;
        if (pr <= 0)
            continue;
        ssize_t r = read(fd, c, n);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return Worker::Result::Died;
        c += r;
        n -= static_cast<std::size_t>(r);
    }
    return Worker::Result::Done;
}

} // namespace

Worker::Worker(const WorkloadSpec &w, double budget)
{
    int req[2];
    int rep[2];
    if (pipe2(req, O_CLOEXEC) != 0)
        return;
    if (pipe2(rep, O_CLOEXEC) != 0) {
        close(req[0]);
        close(req[1]);
        return;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t parent = getpid();
    pid = fork();
    if (pid == 0) {
        close(req[1]);
        close(rep[0]);
        serve(w, req[0], rep[1], parent);
    }
    close(req[0]);
    close(rep[1]);
    toWorker = req[1];
    fromWorker = rep[0];
    if (pid < 0) {
        kill();
        return;
    }
    std::string ready;
    if (receive(nowNs() + static_cast<std::int64_t>(budget * 1e9), ready) !=
        Result::Done)
        kill();
}

Worker::~Worker() { kill(); }

void
Worker::kill()
{
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    pid = -1;
    if (toWorker >= 0)
        close(toWorker);
    if (fromWorker >= 0)
        close(fromWorker);
    toWorker = fromWorker = -1;
}

Worker::Result
Worker::receive(std::int64_t deadlineNs, std::string &msg)
{
    std::uint64_t len = 0;
    Result r = readBy(fromWorker, &len, sizeof len, deadlineNs);
    if (r != Result::Done)
        return r;
    if (len > (std::uint64_t{1} << 34))
        return Result::Died;
    msg.resize(len);
    // The outcome is written as soon as the campaign ends; allow its
    // transfer past the budget.
    return readBy(fromWorker, msg.data(), len,
                  std::max(deadlineNs, nowNs()) + 10'000'000'000);
}

Worker::Result
Worker::run(const Draw &d, bool traced, double budget, Outcome &out)
{
    out = Outcome{};
    Request req;
    req.draw = d;
    req.traced = traced;
    std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(budget * 1e9);
    std::string msg;
    Result r = writeAll(toWorker, &req, sizeof req)
                   ? receive(deadline, msg)
                   : Result::Died;
    if (r == Result::Done && !decode(msg, out))
        r = Result::Died;
    if (r != Result::Done)
        kill();
    return r;
}

} // namespace perfbench
