#include "common/logging.h"

#include <cstdio>
#include <mutex>

namespace flat {
namespace {

std::mutex g_mutex;

const char*
level_tag(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
}

} // namespace

LogLevel
log_level()
{
    return LogLevel::kInfo;
}

void
log_message(LogLevel level, const std::string& msg)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    std::fprintf(stderr, "[flat:%s] %s\n", level_tag(level), msg.c_str());
}

} // namespace flat
