#include "mix.hpp"

#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "workload/suite.hpp"

namespace lbbench
{

namespace
{

constexpr const char *kSchemes[] = {
    "baseline", "best-swl", "ccws",     "pcal",      "cerf",      "linebacker",
    "vc",       "svc",      "pcal-svc", "pcal-cerf", "cache-ext", "lb-cache-ext"};
constexpr std::size_t kSchemeCount = sizeof(kSchemes) / sizeof(kSchemes[0]);

/** Static warp limit of the pool's best-swl cells (the oracle sweep
 *  would make a "short" cell six simulations long). */
constexpr std::uint32_t kMixWarpLimit = 16;

std::size_t
appCount()
{
    return lbsim::benchmarkSuite().size();
}

/** Seeded Fisher-Yates permutation of 0..n-1. */
std::vector<std::size_t>
permutation(std::size_t n, lbsim::Rng &rng)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

} // namespace

const std::vector<MixCell> &
mixPool()
{
    static const std::vector<MixCell> pool = [] {
        std::vector<MixCell> cells;
        for (const char *scheme : kSchemes) {
            for (const lbsim::AppProfile &app : lbsim::benchmarkSuite())
                cells.push_back(MixCell{app.id, scheme});
        }
        return cells;
    }();
    return pool;
}

std::size_t
mixColdCount()
{
    return mixPool().size() / 2;
}

std::size_t
mixWarmCount()
{
    return 2 * mixColdCount();
}

std::vector<MixRequest>
mixSequence(std::uint64_t seed)
{
    lbsim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x6c62272e07bb0142ull);

    // Balanced half of the pool: apps in seeded order alternate between
    // the two halves of a seeded scheme order, so every app gets half
    // the schemes and every scheme half the apps.
    const std::vector<std::size_t> apps = permutation(appCount(), rng);
    const std::vector<std::size_t> schemes = permutation(kSchemeCount, rng);
    const std::size_t half = kSchemeCount / 2;
    std::vector<std::size_t> cold;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t j = 0; j < half; ++j) {
            const std::size_t scheme = schemes[(a % 2) * half + j];
            cold.push_back(scheme * appCount() + apps[a]);
        }
    }
    const std::vector<std::size_t> order = permutation(cold.size(), rng);

    const std::size_t cold_total = cold.size();
    const std::size_t warm_total = mixWarmCount();
    std::vector<MixRequest> sequence;
    sequence.reserve(cold_total + warm_total);
    std::size_t cold_sent = 0;
    std::size_t warm_sent = 0;
    while (cold_sent < cold_total || warm_sent < warm_total) {
        const std::size_t cold_left = cold_total - cold_sent;
        const std::size_t warm_left = warm_total - warm_sent;
        const bool send_warm = cold_sent > 0 && warm_left > 0 &&
            (cold_left == 0 || rng.below(cold_left + warm_left) < warm_left);
        if (send_warm) {
            const std::size_t earlier = order[rng.below(cold_sent)];
            sequence.push_back(MixRequest{cold[earlier], true});
            ++warm_sent;
        } else {
            sequence.push_back(MixRequest{cold[order[cold_sent]], false});
            ++cold_sent;
        }
    }
    return sequence;
}

lbsim::PlanRequest
mixPlanRequest(const MixCell &cell)
{
    lbsim::PlanRequest request;
    request.name = "mix-" + cell.app + "-" + cell.scheme;
    request.apps = {cell.app};
    request.schemes = {cell.scheme};
    request.sms = 1;
    request.warmup = 500;
    request.cycles = 1500;
    if (cell.scheme == "best-swl")
        request.warpLimit = kMixWarpLimit;
    return request;
}

} // namespace lbbench
