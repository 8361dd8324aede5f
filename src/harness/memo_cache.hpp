/**
 * @file
 * File-backed memoization of simulation results.
 *
 * Benches share an oracle (Best-SWL sweep) and many (app, scheme, config)
 * runs; with every bench a separate process, a small on-disk cache keyed
 * by a config hash avoids re-simulating identical points. Entries are
 * invalidated implicitly by the key hash covering all relevant inputs,
 * and explicitly by a schema-version record: a store written by an
 * older (or newer) build is discarded wholesale rather than misread.
 *
 * Since schema 4 the store is a CRC-framed write-ahead journal
 * (lbsim-journal-v1, see service/journal.hpp) instead of an in-place
 * CSV append: a writer killed mid-store can tear at most the final
 * frame, which recovery truncates on the next load instead of
 * misparsing — the durability contract the lbsimd sweep service builds
 * its kill-and-restart resume on. Each record is "key|value"; re-stores
 * append (last write wins on load) and compact() folds them out.
 *
 * The store is thread-safe with single-writer semantics: the whole file
 * is loaded into memory once, lookups are in-memory map reads, and all
 * mutations (map insert + journal append) happen under one mutex. In
 * addition, getOrComputeIf() deduplicates in-flight computations, so
 * when several experiment-engine workers race toward the same cell (e.g.
 * the shared Best-SWL oracle sweep) the simulation is paid exactly once
 * and the losers block on the winner's result.
 *
 * Callers that must not touch the store (--no-cache) bypass it through
 * RunnerOptions::useMemoCache. An instance built without a path is the
 * same single-flight store kept in memory only: ExperimentEngine::run
 * shares one among a plan's memo-off cells.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/thread_safety.hpp"
#include "service/journal.hpp"

namespace lbsim
{

/** Thread-safe key/value store for run metrics, persisted to a file. */
class MemoCache
{
  public:
    /**
     * @param path Cache file location (created lazily); empty keeps the
     *     store in memory, with nothing loaded or persisted.
     */
    explicit MemoCache(std::string path = {});

    /** Look up @p key; returns the stored value if present. */
    std::optional<std::string> lookup(const std::string &key) const;

    /** Store @p value under @p key (appends a journal record). */
    void store(const std::string &key, const std::string &value);

    /** What a conditional computation produced. */
    struct ComputeResult
    {
        std::string value;
        /**
         * False keeps the value out of the store entirely (no map entry,
         * no journal append) — the contract abnormally-ended runs rely
         * on: a hang or fault-degraded run must never be replayed from
         * cache as if it were a healthy result.
         */
        bool persist = true;
    };

    /**
     * Return the cached value for @p key, computing it via @p compute on
     * a miss; @p compute decides whether its result may be persisted.
     * Concurrent callers with the same key share one computation
     * (single-flight) and receive its value even when it is not
     * persisted; if it throws, every waiter sees the exception and the
     * key stays uncached.
     */
    std::string
    getOrComputeIf(const std::string &key,
                   const std::function<ComputeResult()> &compute);

    /**
     * Compact the journal: rewrite it (temp file + rename) with one
     * record per live key, folding out superseded re-stores. The
     * daemon's graceful-shutdown checkpoint.
     */
    void compact();

    /** Live entry count. */
    std::size_t size() const;

    /** Default cache location (next to the running binary). */
    static std::string defaultPath();

    /**
     * Process-wide cache instance for the current defaultPath(). One
     * instance per distinct path, so tests that redirect
     * LBSIM_CACHE_PATH mid-process get their own store.
     */
    static MemoCache &shared();

    /** Schema record written as the first journal record. */
    static const char *schemaHeader();

  private:
    /** Load the journal; logs its recovery when it repaired the file. */
    void load();
    void append(const std::string &key, const std::string &value)
        LB_REQUIRES(mutex_);
    void checkpointLocked() LB_REQUIRES(mutex_);

    std::string path_;

    mutable Mutex mutex_;
    Journal journal_ LB_GUARDED_BY(mutex_);
    /** File needs rewriting before the first append (bad/old schema). */
    bool rewriteOnStore_ LB_GUARDED_BY(mutex_) = false;
    /** Schema record already present on disk. */
    bool schemaOnDisk_ LB_GUARDED_BY(mutex_) = false;
    std::unordered_map<std::string, std::string> entries_
        LB_GUARDED_BY(mutex_);
    std::unordered_map<std::string, std::shared_future<std::string>>
        inflight_ LB_GUARDED_BY(mutex_);
};

/** FNV-1a of @p data, for building cache keys. */
std::uint64_t fnv1a(const std::string &data);

} // namespace lbsim
