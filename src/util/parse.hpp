// bloom87: whole-token number parsing, shared by every input path (CLI
// flags and positionals, history archives, channel names).
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace bloom87 {

/// Parses all of `text` as an integer T with std::from_chars: a sign only
/// for signed types, no trailing characters, and within T's range. On
/// failure returns false and leaves *out unchanged.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T* out) {
    T v{};
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
    *out = v;
    return true;
}

}  // namespace bloom87
