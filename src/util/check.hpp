// bloom87: always-on invariant checks.
//
// assert() vanishes under NDEBUG; check() does not. Use it where a violated
// invariant would otherwise be silent corruption: a bound that guards a
// memory write or an index, or a value that must fit its encoding. A failed
// check prints the condition's description and its source location, then
// aborts. In constant evaluation a failed check is a compile error.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <source_location>

namespace bloom87 {

[[noreturn]] inline void check_failed(const char* what,
                                      const std::source_location& where) {
    std::fprintf(stderr, "%s:%u: check failed: %s\n", where.file_name(),
                 static_cast<unsigned>(where.line()), what);
    std::abort();
}

/// Aborts with `what` unless `ok`.
constexpr void check(bool ok, const char* what,
                     const std::source_location& where =
                         std::source_location::current()) {
    if (!ok) [[unlikely]] check_failed(what, where);
}

}  // namespace bloom87
