/**
 * @file
 * Error handling primitives for the FLAT/ATTACC library.
 *
 * Follows the gem5 fatal()/panic() philosophy:
 *  - FLAT_CHECK / flat::Error   -> user-facing configuration errors
 *    (infeasible dataflow, bad model parameters).
 *  - FLAT_ASSERT / flat::InternalError -> invariant violations that
 *    indicate a bug in the library itself.
 */
#ifndef FLAT_COMMON_STATUS_H
#define FLAT_COMMON_STATUS_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace flat {

/** Error caused by invalid user input or an infeasible configuration. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string& msg) : std::runtime_error(msg) {}
};

/** Error caused by a violated internal invariant (a library bug). */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string& msg) : std::logic_error(msg) {}
};

namespace detail {

/** Builds the final exception message with source location context. */
std::string make_error_message(const char* kind, const char* cond,
                               const char* file, int line,
                               const std::string& detail);

} // namespace detail

} // namespace flat

/**
 * Check a user-facing precondition; throws flat::Error on failure.
 * Usage: FLAT_CHECK(buf_bytes > 0, "buffer must be positive, got " << x);
 */
#define FLAT_CHECK(cond, msg)                                                \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::ostringstream flat_oss__;                                   \
            flat_oss__ << msg;                                               \
            throw ::flat::Error(::flat::detail::make_error_message(          \
                "check failed", #cond, __FILE__, __LINE__,                   \
                flat_oss__.str()));                                          \
        }                                                                    \
    } while (0)

/** Check an internal invariant; throws flat::InternalError on failure. */
#define FLAT_ASSERT(cond, msg)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::ostringstream flat_oss__;                                   \
            flat_oss__ << msg;                                               \
            throw ::flat::InternalError(::flat::detail::make_error_message(  \
                "assertion failed", #cond, __FILE__, __LINE__,               \
                flat_oss__.str()));                                          \
        }                                                                    \
    } while (0)

/** Unconditional user-facing failure. */
#define FLAT_FAIL(msg)                                                       \
    do {                                                                     \
        std::ostringstream flat_oss__;                                       \
        flat_oss__ << msg;                                                   \
        throw ::flat::Error(::flat::detail::make_error_message(              \
            "error", "", __FILE__, __LINE__, flat_oss__.str()));             \
    } while (0)

#endif // FLAT_COMMON_STATUS_H
