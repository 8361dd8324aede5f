#include "gate.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/fs.hpp"
#include "harness/memo_cache.hpp"

namespace lbbench
{

std::string
resultDigest(const lbsim::RunMetrics &metrics)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      lbsim::fnv1a(lbsim::serializeRunMetrics(metrics))));
    return hex;
}

std::string
cellKey(const std::string &app, const std::string &scheme)
{
    return app + "/" + scheme;
}

bool
loadDigests(const std::string &path, DigestTable &table, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    for (std::size_t number = 1; std::getline(in, line); ++number) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        std::string digest;
        std::string extra;
        if (!(fields >> key >> digest) || (fields >> extra) ||
            digest.size() != 16) {
            error = path + ":" + std::to_string(number) +
                ": expected 'app/scheme digest'";
            return false;
        }
        table[key] = digest;
    }
    return true;
}

bool
writeDigests(const std::string &path, const DigestTable &table,
             const std::string &header)
{
    std::string text = header;
    for (const auto &[key, digest] : table)
        text += key + " " + digest + "\n";
    return lbsim::atomicWriteFile(path, text);
}

bool
matchesDigest(const DigestTable &table, const std::string &key,
              const lbsim::RunMetrics &metrics, std::string &why)
{
    const auto it = table.find(key);
    if (it == table.end()) {
        why = key + ": no expected digest";
        return false;
    }
    const std::string actual = resultDigest(metrics);
    if (actual != it->second) {
        why = key + ": digest " + actual + ", expected " + it->second;
        return false;
    }
    return true;
}

} // namespace lbbench
