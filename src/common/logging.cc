#include "common/logging.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/thread_pool.hh"

namespace tie {

namespace {

/**
 * One mutex serialises every diagnostic line and each message is
 * emitted with a single fwrite, so warnings from pool threads never
 * interleave mid-line on a shared stderr.
 */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

void
writeLine(std::FILE *to, const std::string &line)
{
    std::lock_guard<std::mutex> lk(logMutex());
    std::fwrite(line.data(), 1, line.size(), to);
    std::fflush(to);
}

/**
 * TIE_LOG_LEVEL threshold, parsed once:
 *   silent|none|0 — suppress warn() and inform()
 *   warn|1        — warnings only
 *   info|2        — everything (default)
 * panic()/fatal() always print: the process is about to die.
 */
LogLevel
threshold()
{
    static const LogLevel lvl = [] {
        const char *s = std::getenv("TIE_LOG_LEVEL");
        if (s == nullptr)
            return LogLevel::Info;
        std::string v(s);
        for (char &c : v)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        if (v == "silent" || v == "none" || v == "0")
            return LogLevel::Silent;
        if (v == "warn" || v == "warning" || v == "1")
            return LogLevel::Warn;
        if (v == "info" || v == "2" || v.empty())
            return LogLevel::Info;
        writeLine(stderr, "warn: ignoring unknown TIE_LOG_LEVEL='" +
                              std::string(s) + "'\n");
        return LogLevel::Info;
    }();
    return lvl;
}

} // namespace

bool
logLevelEnabled(LogLevel lvl)
{
    return static_cast<int>(lvl) <= static_cast<int>(threshold());
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    writeLine(stderr, strCat("panic: ", msg, "\n  at ", file, ":", line,
                             "\n"));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    writeLine(stderr, strCat("fatal: ", msg, "\n  at ", file, ":", line,
                             "\n"));
    // Inside a parallelFor body, std::exit's static destructors would
    // join the pool from one of its own threads (std::terminate) or
    // while other chunks still run: flush stdio and end the process
    // without them.
    if (inParallelRegion()) {
        std::fflush(nullptr);
        std::_Exit(1);
    }
    std::exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    if (!logLevelEnabled(LogLevel::Warn))
        return;
    writeLine(stderr,
              strCat("warn: ", msg, " (", file, ":", line, ")\n"));
}

void
informImpl(const std::string &msg)
{
    if (!logLevelEnabled(LogLevel::Info))
        return;
    writeLine(stdout, strCat("info: ", msg, "\n"));
}

} // namespace tie
