/**
 * @file
 * Deterministic-iteration helpers for unordered containers.
 *
 * Iterating std::unordered_{map,set} directly yields an order that
 * depends on the hash function, the library implementation, and the
 * container's operation history — anything derived from such a walk
 * (audit failure messages, debug dumps, stat updates) can differ
 * between runs and toolchains, breaking bit-identical replay and the
 * memo cache. Model code walks sortedKeys() instead; the
 * lbsim-nondeterminism lint flags direct iteration whose body mutates
 * state or produces output.
 */

#pragma once

#include <algorithm>
#include <vector>

namespace lbsim
{

/** Keys of @p map in ascending order (deterministic walk order). */
template <typename Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &map)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(map.size());
    for (const auto &entry : map)
        keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace lbsim
