// Fixture: range-for over unordered containers whose bodies have
// order-visible effects (state mutation, output). lbsim_lint.py must
// flag each loop header line.

#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

struct Counters
{
    std::unordered_map<std::uint64_t, std::uint64_t> perLine_;
    std::unordered_set<std::uint64_t> dirty_;
    std::uint64_t total_ = 0;

    std::uint64_t
    drain()
    {
        std::uint64_t sum = 0;
        for (const auto &entry : perLine_) { // EXPECT(lbsim-nondeterminism)
            total_ += entry.second;
            sum = total_;
        }
        return sum;
    }

    void
    dump() const
    {
        for (const auto &entry : perLine_) { // EXPECT(lbsim-nondeterminism)
            std::printf("%llu\n",
                        static_cast<unsigned long long>(entry.second));
        }
    }

    void
    flush(std::unordered_map<std::uint64_t, std::uint64_t> &out)
    {
        for (const std::uint64_t line : dirty_) { // EXPECT(lbsim-nondeterminism)
            out.insert({line, perLine_[line]});
        }
    }
};
