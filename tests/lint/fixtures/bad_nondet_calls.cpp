// Fixture: every nondeterminism *source* the lbsim-nondeterminism
// check must flag. Trailing EXPECT(check) comments are the oracle the
// check_lint.py runner compares lbsim_lint.py against.

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

int
unseededDraw()
{
    return std::rand(); // EXPECT(lbsim-nondeterminism)
}

long
wallClockSeconds()
{
    return std::time(nullptr); // EXPECT(lbsim-nondeterminism)
}

const char *
readEnvironment()
{
    return std::getenv("LBSIM_MODE"); // EXPECT(lbsim-nondeterminism)
}

unsigned
hardwareEntropy()
{
    std::random_device entropy; // EXPECT(lbsim-nondeterminism)
    return entropy();
}

long long
chronoNowTicks()
{
    const auto now = std::chrono::steady_clock::now(); // EXPECT(lbsim-nondeterminism)
    return now.time_since_epoch().count();
}
