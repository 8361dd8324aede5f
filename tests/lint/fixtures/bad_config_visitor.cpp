// Fixture: run-input structs whose forEach<T>Field visitors miss
// fields. A missed field drops out of the memo-cache key (a sweep over
// it returns stale hits) and out of the fuzz case format (a repro file
// cannot state it).

#include <cstdint>
#include <vector>

struct ToyGeometry
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t ways = 0;
};

struct ToyConfig
{
    std::uint32_t numCores = 1;
    double clockGhz = 1.0; // EXPECT(lbsim-stat-registry)
    ToyGeometry l1;
    ToyGeometry l2; // EXPECT(lbsim-stat-registry)
};

template <typename Config, typename Fn>
void
forEachToyConfigField(Config &c, Fn &&fn)
{
    fn("numCores", c.numCores);
    fn("l1SizeBytes", c.l1.sizeBytes);
    fn("l1Ways", c.l1.ways);
    // Visiting l2.sizeBytes alone leaves l2.ways unkeyed.
    fn("l2SizeBytes", c.l2.sizeBytes);
}

struct ToyKernel
{
    std::uint32_t iterations = 1;
    std::vector<std::uint32_t> loads; // EXPECT(lbsim-stat-registry)
};

template <typename Kernel, typename Fn>
void
forEachToyKernelField(Kernel &k, Fn &&fn)
{
    fn("iterations", k.iterations);
}
