/**
 * @file
 * Open-addressing hash map for the cycle kernel's hot paths.
 *
 * The simulator's per-cycle bookkeeping (the MSHR line index and the
 * L1's fetched-line bitmap) is keyed by integers, and the MSHR index
 * churns on every miss and fill. std::unordered_map pays a heap
 * allocation per node and a pointer chase per probe; FlatMap keeps one
 * contiguous slot array instead (linear probing, power-of-two
 * capacity, tombstone deletion), in the spirit of SNIPPETS.md's dense
 * cache-set layout.
 *
 * Load policy: live entries plus tombstones stay at or below half the
 * slots, and a rehash sizes the table to at least 4x the live count, so
 * no lookup walks a long tombstone run and churn at a steady live size
 * stays at a bounded capacity. Once a map has reached its working size
 * (or was reserve()d for it), inserting and erasing allocate nothing.
 *
 * Determinism contract: iteration order depends only on the sequence
 * of insertions and erasures (no pointers, no library-dependent hash),
 * so identical operation histories iterate identically. Audit and
 * debug walks still go through common/det.hpp sortedKeys() like every
 * other unordered container in the tree.
 *
 * Keys must be integral (Addr, request ids). The API is the subset of
 * std::unordered_map the call sites use; erasing invalidates no other
 * slot, inserting may rehash and invalidate all iterators.
 */

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace lbsim
{

namespace detail
{

/** splitmix64 finalizer: full-avalanche mix for integral keys. */
inline std::size_t
flatHash(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
}

enum class SlotState : std::uint8_t { Empty = 0, Full = 1, Tombstone = 2 };

} // namespace detail

/** Open-addressing hash map over integral keys (see file comment). */
template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_integral<K>::value,
                  "FlatMap keys must be integral");

  public:
    using key_type = K;
    using mapped_type = V;
    using value_type = std::pair<K, V>;

    template <typename MapT, typename ValueT>
    class Iter
    {
      public:
        // std::iterator_traits contract (range constructors, algorithms).
        using iterator_category = std::forward_iterator_tag;
        using value_type = std::remove_cv_t<ValueT>;
        using difference_type = std::ptrdiff_t;
        using pointer = ValueT *;
        using reference = ValueT &;

        Iter() = default;
        Iter(MapT *map, std::size_t index) : map_(map), index_(index)
        {
            skipToFull();
        }

        ValueT &operator*() const { return map_->slots_[index_]; }
        ValueT *operator->() const { return &map_->slots_[index_]; }

        Iter &
        operator++()
        {
            ++index_;
            skipToFull();
            return *this;
        }

        bool
        operator==(const Iter &other) const
        {
            return index_ == other.index_;
        }

      private:
        friend class FlatMap;
        void
        skipToFull()
        {
            while (index_ < map_->state_.size() &&
                   map_->state_[index_] != detail::SlotState::Full)
                ++index_;
        }

        MapT *map_ = nullptr;
        std::size_t index_ = 0;
    };

    using iterator = Iter<FlatMap, value_type>;
    using const_iterator = Iter<const FlatMap, const value_type>;

    FlatMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Allocated slot count (lets tests pin the load policy). */
    std::size_t capacity() const { return state_.size(); }
    /** Erased slots not yet swept by a rehash (ditto). */
    std::size_t tombstones() const { return tombstones_; }

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, state_.size()); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, state_.size()); }

    /** Room for @p n live entries: churn at up to @p n never allocates. */
    void
    reserve(std::size_t n)
    {
        spill_.reserve(n);
        const std::size_t needed = slotsFor(n);
        if (needed > state_.size())
            rehash(needed);
    }

    iterator
    find(K key)
    {
        return iterator(this, findIndex(key));
    }
    const_iterator
    find(K key) const
    {
        return const_iterator(this, findIndex(key));
    }

    const V &
    at(K key) const
    {
        const std::size_t index = findIndex(key);
        if (index == state_.size())
            throw std::out_of_range("FlatMap::at: missing key");
        return slots_[index].second;
    }

    V &
    operator[](K key)
    {
        return insertSlot(key, V{}).first->second;
    }

    /** Insert @p value under @p key; no-op if the key is present. */
    template <typename ValueArg>
    std::pair<iterator, bool>
    emplace(K key, ValueArg &&value)
    {
        const auto result = insertSlot(key, std::forward<ValueArg>(value));
        return {iterator(this, indexOf(result.first)), result.second};
    }

    void
    erase(iterator it)
    {
        assert(it.map_ == this && it.index_ < state_.size());
        eraseIndex(it.index_);
    }

  private:
    /** Smallest power-of-two slot count holding @p n at <= 1/4 load. */
    static std::size_t
    slotsFor(std::size_t n)
    {
        std::size_t slots = kMinSlots;
        while (slots < n * 4)
            slots *= 2;
        return slots;
    }

    std::size_t
    indexOf(const value_type *slot) const
    {
        return static_cast<std::size_t>(slot - slots_.data());
    }

    /** Slot index of @p key, or state_.size() when absent. */
    std::size_t
    findIndex(K key) const
    {
        if (state_.empty())
            return 0;
        const std::size_t mask = state_.size() - 1;
        std::size_t index =
            detail::flatHash(static_cast<std::uint64_t>(key)) & mask;
        for (;;) {
            const detail::SlotState s = state_[index];
            if (s == detail::SlotState::Empty)
                return state_.size();
            if (s == detail::SlotState::Full && slots_[index].first == key)
                return index;
            index = (index + 1) & mask;
        }
    }

    template <typename ValueArg>
    std::pair<value_type *, bool>
    insertSlot(K key, ValueArg &&value)
    {
        // Tombstones count against the 1/2 load bound, but the rehash
        // sizes to the live count only: steady-state churn (insert/erase
        // at constant size) sweeps the tombstones at unchanged capacity
        // instead of doubling forever.
        if (state_.empty() ||
            (size_ + tombstones_ + 1) * 2 > state_.size())
            rehash(slotsFor(size_ + 1));
        const std::size_t mask = state_.size() - 1;
        std::size_t index =
            detail::flatHash(static_cast<std::uint64_t>(key)) & mask;
        std::size_t insert_at = state_.size();
        for (;;) {
            const detail::SlotState s = state_[index];
            if (s == detail::SlotState::Empty) {
                if (insert_at == state_.size())
                    insert_at = index;
                break;
            }
            if (s == detail::SlotState::Tombstone) {
                if (insert_at == state_.size())
                    insert_at = index;
            } else if (slots_[index].first == key) {
                return {&slots_[index], false};
            }
            index = (index + 1) & mask;
        }
        if (state_[insert_at] == detail::SlotState::Tombstone)
            --tombstones_;
        state_[insert_at] = detail::SlotState::Full;
        slots_[insert_at].first = key;
        slots_[insert_at].second = std::forward<ValueArg>(value);
        ++size_;
        return {&slots_[insert_at], true};
    }

    void
    eraseIndex(std::size_t index)
    {
        assert(state_[index] == detail::SlotState::Full);
        state_[index] = detail::SlotState::Tombstone;
        slots_[index].second = V{};
        ++tombstones_;
        --size_;
    }

    void
    rehash(std::size_t new_slots)
    {
        if (new_slots < kMinSlots)
            new_slots = kMinSlots;
        // Live entries wait in spill_ and the slot arrays are reassigned
        // in place, so a sweep at a size held before allocates nothing.
        spill_.clear();
        for (std::size_t i = 0; i < state_.size(); ++i)
            if (state_[i] == detail::SlotState::Full)
                spill_.push_back(std::move(slots_[i]));
        slots_.assign(new_slots, value_type{});
        state_.assign(new_slots, detail::SlotState::Empty);
        size_ = 0;
        tombstones_ = 0;
        for (value_type &entry : spill_)
            insertSlot(entry.first, std::move(entry.second));
    }

    static constexpr std::size_t kMinSlots = 16;

    std::vector<value_type> slots_;
    std::vector<detail::SlotState> state_;
    std::size_t size_ = 0;
    std::size_t tombstones_ = 0;
    /** Live entries in transit during rehash() (keeps its capacity). */
    std::vector<value_type> spill_;
};

} // namespace lbsim
