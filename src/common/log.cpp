#include "common/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/thread_safety.hpp"

namespace lbsim
{

bool
envFlag(const char *name)
{
    // One cached slot per distinct name; flag names are compile-time
    // literals, so a tiny linear registry suffices and stays allocation-
    // free after the first few lookups.
    static Mutex registry_mutex;
    static std::map<std::string, bool> registry;
    MutexLock lock(registry_mutex);
    const auto it = registry.find(name);
    if (it != registry.end())
        return it->second;
    const char *value = std::getenv(name);
    const bool set = value != nullptr && value[0] != '\0';
    registry.emplace(name, set);
    return set;
}

void
logMessage(LogLevel level, const char *fmt, ...)
{
    std::fputs(level == LogLevel::Warn ? "warn: " : "info: ", stderr);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
}

void
panic(const char *fmt, ...)
{
    std::fputs("panic: ", stderr);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::fputs("fatal: ", stderr);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    std::exit(1);
}

} // namespace lbsim
