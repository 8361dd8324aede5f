// Fixture: counterpart of bad_config_visitor.cpp — each visitor walks
// every field of its struct, a nested geometry leaf by leaf, and the
// one field that cannot change a result is suppressed with a
// rationale. Must be silent.

#include <cstdint>
#include <string>
#include <vector>

enum class ToyMode
{
    Fast,
    Slow,
};

struct ToyGeometry
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t ways = 0;
};

struct ToyConfig
{
    std::uint32_t numCores = 1;
    ToyMode mode = ToyMode::Fast;
    ToyGeometry l1;
    /** Ignored by the model; kept so old callers compile. */
    std::uint32_t hostThreads = 1; // NOLINT(lbsim-stat-registry)
};

template <typename Config, typename Fn>
void
forEachToyConfigField(Config &c, Fn &&fn)
{
    fn("numCores", c.numCores);
    fn("mode", c.mode);
    fn("l1SizeBytes", c.l1.sizeBytes);
    fn("l1Ways", c.l1.ways);
}

struct ToyKernel
{
    std::string id;
    std::vector<std::uint32_t> loads;
};

template <typename Kernel, typename Fn>
void
forEachToyKernelField(Kernel &k, Fn &&fn)
{
    fn("id", k.id);
    fn("loads", k.loads);
}
