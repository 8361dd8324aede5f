// Fixture: model-style code with no raw concurrency primitives; the
// lbsim-cross-domain check must stay silent. One simulation runs on
// one thread: SMs tick in index order and append straight to the
// crossbar's FIFO, so the model never touches std::thread or
// std::atomic — the cell-level worker pools live outside model dirs.

#include <cstdint>
#include <deque>
#include <vector>

struct Request
{
    std::uint32_t smId = 0;
    std::uint64_t addr = 0;
};

class RequestFifo
{
  public:
    /** SM tick: requests queue in (cycle, SM index, program order). */
    void send(const Request &req) { queue_.push_back(req); }

    /** Crossbar tick: deliver in FIFO order. */
    std::vector<Request> deliverAll()
    {
        std::vector<Request> delivered(queue_.begin(), queue_.end());
        queue_.clear();
        return delivered;
    }

  private:
    std::deque<Request> queue_;
};
