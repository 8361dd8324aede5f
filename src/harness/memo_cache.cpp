#include "harness/memo_cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <vector>

#include "common/log.hpp"

namespace lbsim
{

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : data) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

const char *
MemoCache::schemaHeader()
{
    // Bump the trailing number whenever the on-disk format (not the key
    // semantics — those live in the key hash) changes; files carrying a
    // different header are discarded instead of misread. Schema 4: the
    // store is a CRC-framed lbsim-journal-v1 file whose first record is
    // this header; schema 3 and older were line-oriented CSV.
    return "#lbsim-memo-schema 4";
}

MemoCache::MemoCache(std::string path)
    : path_(std::move(path)), journal_(path_)
{
    if (!path_.empty())
        load();
}

std::string
MemoCache::defaultPath()
{
    if (const char *env = std::getenv("LBSIM_CACHE_PATH"))
        return env;
    return "lbsim_simcache.journal";
}

MemoCache &
MemoCache::shared()
{
    static Mutex registry_mutex;
    static std::map<std::string, std::unique_ptr<MemoCache>> registry;
    const std::string path = defaultPath();
    MutexLock lock(registry_mutex);
    auto it = registry.find(path);
    if (it == registry.end()) {
        it = registry
                 .emplace(path, std::make_unique<MemoCache>(path))
                 .first;
    }
    return *it->second;
}

void
MemoCache::load()
{
    // Called from the constructor only, but the guarded members it
    // fills demand the capability regardless of call site.
    MutexLock lock(mutex_);
    std::vector<std::string> records;
    JournalRecovery recovery;
    if (!journal_.recover(records, recovery)) {
        // Unreadable store: behave as empty but never append into a
        // file we could not make sense of.
        rewriteOnStore_ = true;
        return;
    }
    if (recovery.quarantined || recovery.truncatedBytes)
        logMessage(LogLevel::Warn, "memo cache %s: %s", path_.c_str(),
                   recovery.summary().c_str());
    if (recovery.freshStart) {
        // Missing file starts clean; an existing foreign / pre-journal
        // file (e.g. a schema-3 CSV) must be rewritten before first use.
        rewriteOnStore_ = std::ifstream(path_).good();
        return;
    }
    if (records.empty() || records.front() != schemaHeader()) {
        // Valid journal framing but another producer's (or an older
        // build's) records: discard and start over on the first store.
        rewriteOnStore_ = true;
        return;
    }
    schemaOnDisk_ = true;
    for (std::size_t i = 1; i < records.size(); ++i) {
        const std::string &record = records[i];
        // Concurrent first-stores can race a duplicate schema record
        // into the middle of the file; skip it like any other
        // non-"key|value" payload.
        if (record == schemaHeader())
            continue;
        const auto sep = record.find('|');
        if (sep == std::string::npos)
            continue;
        // Last write wins, matching append order.
        entries_[record.substr(0, sep)] = record.substr(sep + 1);
    }
}

std::optional<std::string>
MemoCache::lookup(const std::string &key) const
{
    MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return std::nullopt;
    return it->second;
}

void
MemoCache::checkpointLocked()
{
    if (path_.empty())
        return;
    std::vector<std::string> records;
    records.reserve(entries_.size() + 1);
    records.push_back(schemaHeader());
    // Deterministic record order keeps compacted journals comparable
    // across runs regardless of map iteration order.
    std::vector<const std::pair<const std::string, std::string> *> live;
    live.reserve(entries_.size());
    for (const auto &entry : entries_)
        live.push_back(&entry);
    std::sort(live.begin(), live.end(),
              [](const auto *a, const auto *b) {
                  return a->first < b->first;
              });
    for (const auto *entry : live)
        records.push_back(entry->first + '|' + entry->second);
    if (journal_.checkpoint(records)) {
        rewriteOnStore_ = false;
        schemaOnDisk_ = true;
    }
}

void
MemoCache::append(const std::string &key, const std::string &value)
{
    if (path_.empty())
        return;
    if (rewriteOnStore_) {
        // Foreign or stale-schema file: replace it wholesale with the
        // live map (which already contains this key).
        checkpointLocked();
        return;
    }
    if (!schemaOnDisk_) {
        // First store into a fresh journal. Appending (rather than
        // checkpointing) keeps this race-tolerant when two processes
        // create the store simultaneously: the loser's extra schema
        // record is skipped by load().
        if (!journal_.append(schemaHeader()))
            return;
        schemaOnDisk_ = true;
    }
    journal_.append(key + '|' + value);
}

void
MemoCache::store(const std::string &key, const std::string &value)
{
    MutexLock lock(mutex_);
    entries_[key] = value;
    append(key, value);
}

void
MemoCache::compact()
{
    MutexLock lock(mutex_);
    checkpointLocked();
}

std::size_t
MemoCache::size() const
{
    MutexLock lock(mutex_);
    return entries_.size();
}

std::string
MemoCache::getOrComputeIf(const std::string &key,
                          const std::function<ComputeResult()> &compute)
{
    std::shared_future<std::string> waiter;
    std::promise<std::string> promise;
    {
        MutexLock lock(mutex_);
        const auto hit = entries_.find(key);
        if (hit != entries_.end())
            return hit->second;
        const auto flight = inflight_.find(key);
        if (flight != inflight_.end()) {
            waiter = flight->second;
        } else {
            inflight_.emplace(key, promise.get_future().share());
        }
    }
    if (waiter.valid())
        return waiter.get(); // May rethrow the winner's exception.

    try {
        ComputeResult result = compute();
        {
            MutexLock lock(mutex_);
            if (result.persist) {
                entries_[key] = result.value;
                append(key, result.value);
            }
            inflight_.erase(key);
        }
        promise.set_value(result.value);
        return result.value;
    } catch (...) {
        {
            MutexLock lock(mutex_);
            inflight_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

} // namespace lbsim
