// Fixture: correct use of the thread-safety capability annotations.
// Compiled (syntax only) with clang -Wthread-safety -Werror by
// check_lint.py; the build must succeed with no diagnostics.

#include "common/thread_safety.hpp"

class GoodCounter
{
  public:
    void
    increment()
    {
        lbsim::MutexLock lock(mu_);
        bump();
    }

    int
    value() const
    {
        lbsim::MutexLock lock(mu_);
        return value_;
    }

  private:
    void bump() LB_REQUIRES(mu_) { ++value_; }

    mutable lbsim::Mutex mu_;
    int value_ LB_GUARDED_BY(mu_) = 0;
};

int
main()
{
    GoodCounter counter;
    counter.increment();
    return counter.value();
}
