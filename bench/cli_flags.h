/**
 * @file
 * Whole-string parsing of numeric command-line flag values, shared by the
 * example CLIs and the bench drivers. "abc", "4x" and "" are errors instead
 * of atoi's silent 0, 4 and 0, and so is a value out of the flag type's
 * range (a negative count, for example).
 */
#ifndef MLGS_BENCH_CLI_FLAGS_H
#define MLGS_BENCH_CLI_FLAGS_H

#include <charconv>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/log.h"

namespace mlgs::bench
{

/** The whole of `text` as a T; FatalError naming `flag` if it is not one. */
template <typename T = int>
T
parseFlag(const std::string &flag, const char *text)
{
    T v = 0;
    const char *end = text + std::strlen(text);
    const auto [p, ec] = std::from_chars(text, end, v);
    MLGS_REQUIRE(ec == std::errc() && p == end, flag, " expects ",
                 std::is_integral_v<T> ? "an integer" : "a number", ", got '",
                 text, "'");
    return v;
}

} // namespace mlgs::bench

#endif // MLGS_BENCH_CLI_FLAGS_H
