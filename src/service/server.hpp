/**
 * @file
 * SweepServer: the engine room of the lbsimd daemon.
 *
 * Accepts ExperimentPlan submissions over a Unix domain socket (wire
 * protocol in service/wire.hpp), schedules their cells on a worker
 * pool, and streams per-cell results back as they complete. Three
 * properties the batch tools cannot provide individually:
 *
 *  - DURABILITY. Results persist through the journal-backed MemoCache
 *    (lbsim-journal-v1), so a SIGKILL loses at most the cells in
 *    flight. Queued plans are additionally persisted in a second
 *    journal of admit/done records; on restart, plans admitted but not
 *    finished are re-enqueued under a synthetic "(recovery)" client and
 *    their already-computed cells replay from the memo cache instead of
 *    re-simulating.
 *
 *  - ADMISSION CONTROL. The cell queue is bounded globally and
 *    per-client; a submission that would exceed either bound — or that
 *    fails validation — receives an explicit shed frame within the
 *    submit handler itself (no queueing, no waiting on workers) and the
 *    connection closes. A client can always distinguish "rejected" from
 *    "slow". Per-cell deadlines ride the fork-isolation watchdog, and
 *    crashed cells are retried with exponential backoff up to a
 *    per-plan cap.
 *
 *  - FAIR SCHEDULING. Cells are queued per client and dispatched by
 *    priority, ties rotated round-robin across clients, so one client's
 *    1000-cell sweep cannot starve another's smoke test.
 *
 * Lifecycle: start() binds and recovers, run() accepts until
 * requestStop() (the SIGTERM path — async-signal-safe) drains in-flight
 * cells, re-persists still-queued plans, and compacts both journals.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_safety.hpp"
#include "service/journal.hpp"
#include "service/wire.hpp"

namespace lbsim
{

/** SweepServer tuning knobs. */
struct ServerOptions
{
    /** Unix-domain socket path; unlinked and re-bound on start. */
    std::string socketPath = "lbsimd.sock";
    /** Worker threads executing cells. */
    unsigned workers = 1;
    /** Global bound on queued (not yet running) cells. */
    std::size_t maxQueuedCells = 1024;
    /** Per-client bound on queued cells. */
    std::size_t perClientQueuedCells = 512;
    /** Path of the queued-plans journal; empty disables resume. */
    std::string plansJournalPath = "lbsimd_plans.journal";
    /** Fork-isolate every cell (deadline cells always isolate). */
    bool isolateCells = false;
    /** Base backoff before retrying a crashed cell; doubles per
     *  attempt of that cell. */
    unsigned retryBackoffMs = 50;
};

/** Monotonic counters exposed via the stats message. */
struct ServerStats
{
    std::uint64_t plansAccepted = 0;
    std::uint64_t plansShed = 0;
    std::uint64_t plansResumed = 0;
    std::uint64_t plansCompleted = 0;
    std::uint64_t cellsCompleted = 0;
    std::uint64_t cellsFailed = 0;
    std::uint64_t cellsRetried = 0;
};

/** Persistent sweep daemon core (socket + queue + worker pool). */
class SweepServer
{
  public:
    explicit SweepServer(ServerOptions options);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /**
     * Bind the socket, recover the plans journal (re-enqueueing
     * unfinished plans), and spawn the worker pool. @return false with
     * @p error on failure (socket in use, unreadable journal...).
     */
    bool start(std::string *error = nullptr);

    /**
     * Accept and serve connections until requestStop(). Returns 0 on a
     * graceful drain. Runs on the caller's thread.
     */
    int run();

    /**
     * Begin a graceful shutdown: stop accepting, let in-flight cells
     * finish, keep still-queued plans persisted for the next start.
     * Async-signal-safe (one write to a pipe), so it may be called
     * straight from a SIGTERM handler.
     */
    void requestStop();

    /** Counter snapshot (also served over the wire as "stats"). */
    ServerStats stats() const;

    /** Queued-but-not-running cell count (admission pressure). */
    std::size_t queuedCells() const;

    /**
     * Connection threads held: one per open connection, plus closed
     * ones that the next accept has not reaped yet.
     */
    std::size_t connectionThreads() const;

    const ServerOptions &options() const { return options_; }

  private:
    struct ClientConn;
    struct PlanState;
    struct CellTask;
    /** An accepted connection and the thread running its loop. */
    struct Connection
    {
        std::shared_ptr<ClientConn> conn;
        std::thread thread;
    };

    void connectionLoop(std::shared_ptr<ClientConn> conn);
    /** Join and close the connections whose loop has returned, or
     *  every connection when @p all (shut down first). */
    void reapConnections(bool all);
    void handleSubmit(const std::shared_ptr<ClientConn> &conn,
                      const JsonValue &message);
    void workerLoop();
    /** Pop the next task honoring priority + round-robin fairness.
     *  Blocks; returns false when draining and the queue is empty. */
    bool popTask(CellTask &task);
    void executeTask(const CellTask &task);
    void deliverResult(const CellTask &task, const CellResult &result);
    void enqueuePlan(const std::shared_ptr<PlanState> &plan)
        LB_REQUIRES(mutex_);
    bool recoverPlans(std::string *error);
    void persistQueuedPlans();
    std::string statsMessage() const;

    ServerOptions options_;
    Journal plansJournal_;
    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::atomic<bool> stopping_{false};
    std::vector<std::thread> workers_;

    mutable Mutex mutex_;
    std::condition_variable queueCv_;
    /** Per-client FIFO queues; scheduling picks across them. */
    std::map<std::string, std::deque<CellTask>> queues_
        LB_GUARDED_BY(mutex_);
    /** Round-robin tie-break cursor over client names. */
    std::string rrCursor_ LB_GUARDED_BY(mutex_);
    std::size_t queuedCells_ LB_GUARDED_BY(mutex_) = 0;
    std::size_t runningCells_ LB_GUARDED_BY(mutex_) = 0;
    std::uint64_t nextPlanSeq_ LB_GUARDED_BY(mutex_) = 0;
    /** Plans not yet completed, by id (for persistence + done marks). */
    std::map<std::string, std::shared_ptr<PlanState>> livePlans_
        LB_GUARDED_BY(mutex_);
    /** Accepted connections whose thread is not joined yet. Each
     *  accept reaps the finished ones; the drain shuts down the rest so
     *  their readers unblock and join. */
    std::vector<Connection> connections_ LB_GUARDED_BY(mutex_);
    ServerStats stats_ LB_GUARDED_BY(mutex_);
};

} // namespace lbsim
