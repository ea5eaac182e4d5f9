/**
 * @file
 * Minimal fatal/panic/warn error reporting in the spirit of gem5's
 * logging.hh.
 *
 * fatal()  — the condition is the *user's* fault (bad configuration or
 *            arguments); exits with status 1. Library code paths must not
 *            call this for runtime data errors — they return Status /
 *            Result<T> (base/status.hh, base/result.hh) and leave
 *            termination to the ...OrDie() wrappers at binary boundaries.
 * panic()  — the condition indicates a bug in this library itself; aborts
 *            so a core dump / debugger can capture the state.
 * warn()   — non-fatal diagnostics, gated by the BF_LOG_LEVEL environment
 *            variable: "silent" (or "none"/"0") suppresses warnings,
 *            anything else (including unset) keeps them on.
 * warnOnce() — like warn() but each key prints at most once per process,
 *            so lenient parsing of a 5000-row corrupt file cannot emit
 *            5000 lines.
 */

#ifndef BF_BASE_LOGGING_HH
#define BF_BASE_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>

namespace bigfish {

/**
 * Terminates with status 1; use for user-caused misconfiguration. Safe
 * from any thread: it flushes stdio and skips static destructors
 * (std::_Exit), since exit() would destroy the global thread pool, and
 * a pool worker cannot join itself.
 */
[[noreturn]] inline void
fatal(const std::string &message)
{
    std::fprintf(stderr, "fatal: %s\n", message.c_str());
    std::fflush(nullptr);
    std::_Exit(1);
}

/** Aborts; use for internal invariant violations (library bugs). */
[[noreturn]] inline void
panic(const std::string &message)
{
    std::fprintf(stderr, "panic: %s\n", message.c_str());
    std::abort();
}

/** True unless BF_LOG_LEVEL silences warnings ("silent"|"none"|"0"). */
inline bool
warningsEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("BF_LOG_LEVEL");
        if (env == nullptr)
            return true;
        const std::string level(env);
        return level != "silent" && level != "none" && level != "0";
    }();
    return enabled;
}

/** Prints a warning without stopping the run (see BF_LOG_LEVEL). */
inline void
warn(const std::string &message)
{
    if (warningsEnabled())
        std::fprintf(stderr, "warn: %s\n", message.c_str());
}

/**
 * Prints a warning at most once per @p key per process. Use a stable key
 * (e.g. "trace-io/short-row") for repeated per-record conditions and put
 * the variable detail in @p message.
 */
inline void
warnOnce(const std::string &key, const std::string &message)
{
    static std::mutex mutex;
    static std::unordered_set<std::string> seen;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!seen.insert(key).second)
            return;
    }
    warn(message);
}

/** fatal() unless the condition holds. */
inline void
fatalIf(bool condition, const std::string &message)
{
    if (condition)
        fatal(message);
}

/** panic() unless the condition holds. */
inline void
panicIf(bool condition, const std::string &message)
{
    if (condition)
        panic(message);
}

} // namespace bigfish

#endif // BF_BASE_LOGGING_HH
