/**
 * @file
 * The benchmark's correctness gate.
 *
 * A timing is worthless if the simulator computed something else, so
 * every workload checks what it produced: fig12-smoke its JSON artifact
 * against tests/golden/fig12_smoke.json byte for byte, chip16-lb and
 * lbsimd-mixed each cell's serializeRunMetrics() string against a digest
 * kept in lbbench/expected/.
 */

#pragma once

#include <map>
#include <string>

#include "harness/sim_runner.hpp"

namespace lbbench
{

/** Stable digest of a result: FNV-1a of serializeRunMetrics(), in hex. */
std::string resultDigest(const lbsim::RunMetrics &metrics);

/** "app/scheme" key naming a cell in an expected-digest file. */
std::string cellKey(const std::string &app, const std::string &scheme);

/** Expected digests by cell key. */
using DigestTable = std::map<std::string, std::string>;

/**
 * Read an expected-digest file ("key digest" lines, '#' comments).
 * @return false with @p error when the file is missing or malformed.
 */
bool loadDigests(const std::string &path, DigestTable &table,
                 std::string &error);

/** Write @p table in the format loadDigests() reads. */
bool writeDigests(const std::string &path, const DigestTable &table,
                  const std::string &header);

/**
 * True when @p metrics is what @p table expects for @p key; otherwise
 * false with the reason in @p why.
 */
bool matchesDigest(const DigestTable &table, const std::string &key,
                   const lbsim::RunMetrics &metrics, std::string &why);

} // namespace lbbench
