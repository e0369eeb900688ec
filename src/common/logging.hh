/**
 * @file
 * Diagnostic helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (a bug in this library);
 *            aborts so a debugger / core dump can capture state.
 * fatal()  — the *user* asked for something impossible (bad configuration,
 *            mismatched shapes supplied through the public API); exits with
 *            an error code.
 * warn()   — something works but is suspicious or approximated.
 * inform() — plain status output.
 *
 * Diagnostics are thread-safe: one process-wide mutex serialises
 * writers and each message is one write, so pool-thread warnings never
 * interleave. The TIE_LOG_LEVEL environment variable (silent|warn|info,
 * default info) filters warn()/inform(); panic()/fatal() always print.
 * TIE_WARN_ONCE fires at most once per call site for the process.
 */

#ifndef TIE_COMMON_LOGGING_HH
#define TIE_COMMON_LOGGING_HH

#include <atomic>
#include <sstream>
#include <string>

namespace tie {

/** Verbosity classes ordered by severity (lower = always shown). */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2 };

/** True when messages of class @p lvl pass the TIE_LOG_LEVEL filter. */
bool logLevelEnabled(LogLevel lvl);

/** Terminate with an internal-bug diagnostic (calls std::abort). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/**
 * Terminate with a user-error diagnostic and exit code 1 — from any
 * thread, a thread-pool worker included (std::_Exit inside a
 * parallelFor body, std::exit elsewhere).
 */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr. */
void warnImpl(const char *file, int line, const std::string &msg);

/** Print an informational message to stdout. */
void informImpl(const std::string &msg);

/**
 * Build a string by streaming every argument into an ostringstream.
 * Keeps call sites free of manual string concatenation.
 */
template <typename... Args>
std::string
strCat(const Args &...args)
{
    std::ostringstream oss;
    ((void)(oss << ... << args));
    return oss.str();
}

} // namespace tie

#define TIE_PANIC(...) \
    ::tie::panicImpl(__FILE__, __LINE__, ::tie::strCat(__VA_ARGS__))

#define TIE_FATAL(...) \
    ::tie::fatalImpl(__FILE__, __LINE__, ::tie::strCat(__VA_ARGS__))

#define TIE_WARN(...) \
    ::tie::warnImpl(__FILE__, __LINE__, ::tie::strCat(__VA_ARGS__))

/** Like TIE_WARN, but this call site fires at most once per process. */
#define TIE_WARN_ONCE(...)                                              \
    do {                                                                \
        static std::atomic<bool> tie_warned_once_{false};               \
        if (!tie_warned_once_.exchange(true,                            \
                                       std::memory_order_relaxed)) {    \
            TIE_WARN(__VA_ARGS__);                                      \
        }                                                               \
    } while (0)

#define TIE_INFORM(...) ::tie::informImpl(::tie::strCat(__VA_ARGS__))

/** Invariant check that survives release builds (unlike assert). */
#define TIE_REQUIRE(cond, ...)                                         \
    do {                                                               \
        if (!(cond)) {                                                 \
            ::tie::panicImpl(__FILE__, __LINE__,                       \
                             ::tie::strCat("requirement failed: ",     \
                                           #cond, " — ",               \
                                           ::tie::strCat(__VA_ARGS__))); \
        }                                                              \
    } while (0)

/** User-facing argument check: failure is the caller's fault. */
#define TIE_CHECK_ARG(cond, ...)                                       \
    do {                                                               \
        if (!(cond)) {                                                 \
            ::tie::fatalImpl(__FILE__, __LINE__,                       \
                             ::tie::strCat("invalid argument: ",       \
                                           #cond, " — ",               \
                                           ::tie::strCat(__VA_ARGS__))); \
        }                                                              \
    } while (0)

#endif // TIE_COMMON_LOGGING_HH
