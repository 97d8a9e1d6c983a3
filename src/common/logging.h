/**
 * @file
 * Tiny leveled logger. The model itself never logs on hot paths; logging
 * is for DSE progress and bench harness diagnostics.
 */
#ifndef FLAT_COMMON_LOGGING_H
#define FLAT_COMMON_LOGGING_H

#include <sstream>
#include <string>

namespace flat {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/** Log threshold (kInfo); messages below it are dropped. */
LogLevel log_level();

/** Emits one log line to stderr (thread-safe at line granularity). */
void log_message(LogLevel level, const std::string& msg);

} // namespace flat

#define FLAT_LOG(level, msg)                                                 \
    do {                                                                     \
        if (static_cast<int>(level) >=                                       \
            static_cast<int>(::flat::log_level())) {                         \
            std::ostringstream flat_log_oss__;                               \
            flat_log_oss__ << msg;                                           \
            ::flat::log_message(level, flat_log_oss__.str());                \
        }                                                                    \
    } while (0)

#define FLAT_LOG_DEBUG(msg) FLAT_LOG(::flat::LogLevel::kDebug, msg)
#define FLAT_LOG_INFO(msg) FLAT_LOG(::flat::LogLevel::kInfo, msg)
#define FLAT_LOG_WARN(msg) FLAT_LOG(::flat::LogLevel::kWarn, msg)
#define FLAT_LOG_ERROR(msg) FLAT_LOG(::flat::LogLevel::kError, msg)

#endif // FLAT_COMMON_LOGGING_H
