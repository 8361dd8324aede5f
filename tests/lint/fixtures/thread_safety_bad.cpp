// Fixture: thread-safety capability violations. Compiled (syntax
// only) with clang -Wthread-safety -Werror by check_lint.py; the
// build MUST fail. Under gcc the annotations expand to nothing, so
// the runner skips this fixture when no clang is available.

#include "common/thread_safety.hpp"

class BadCounter
{
  public:
    void
    incrementUnlocked()
    {
        ++value_; // guarded member touched without holding mu_
    }

    void
    lockWithoutUnlock()
    {
        mu_.lock(); // never released on this path
        ++value_;
    }

  private:
    lbsim::Mutex mu_;
    int value_ LB_GUARDED_BY(mu_) = 0;
};

int
main()
{
    BadCounter counter;
    counter.incrementUnlocked();
    counter.lockWithoutUnlock();
    return 0;
}
