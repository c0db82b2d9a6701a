/**
 * @file
 * The one JSON string/number writer shared by every emitter in the
 * tree (mtpu_sim --json, bench/common.hpp, the metrics snapshot and
 * the Chrome-trace exporter). Centralizing the escaping means a
 * contract name containing a quote or a backslash can never produce
 * an invalid report again.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mtpu::obs {

/** Escape @p s for inclusion inside a JSON string literal (no quotes). */
std::string jsonEscape(std::string_view s);

/** Render @p s as a quoted, escaped JSON string literal. */
std::string jsonQuote(std::string_view s);

/** Number literal for a double (%.10g round-trips report figures). */
std::string jsonNum(double v);

std::string jsonNum(std::uint64_t v);
std::string jsonNum(std::int64_t v);

inline std::string
jsonNum(int v)
{
    return jsonNum(std::int64_t(v));
}

inline std::string
jsonNum(unsigned v)
{
    return jsonNum(std::uint64_t(v));
}

} // namespace mtpu::obs
