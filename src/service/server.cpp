#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "common/log.hpp"
#include "harness/memo_cache.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace lbsim
{

/** One accepted connection; shared with the plans it submitted. */
struct SweepServer::ClientConn
{
    /** Closed only once this connection's thread is joined, so the
     *  number cannot be reused while a worker may still hold it. */
    int fd = -1;
    /** Serializes event frames from concurrent workers. */
    Mutex writeMutex;
    /** Cleared on the first failed write and when the connection loop
     *  ends; later events are dropped. */
    std::atomic<bool> alive{true};
    /** Set when the connection loop has returned (thread joinable). */
    std::atomic<bool> finished{false};

    /** Send one frame, demoting write failures to "client gone". */
    void
    send(const std::string &payload)
    {
        if (!alive.load(std::memory_order_acquire))
            return;
        MutexLock lock(writeMutex);
        // Re-check under the lock: the loop may have ended meanwhile.
        if (alive.load(std::memory_order_acquire) &&
            !writeFrame(fd, payload))
            alive.store(false, std::memory_order_release);
    }
};

/** One admitted plan and its completion bookkeeping. */
struct SweepServer::PlanState
{
    std::string id;
    std::string client;
    int priority = 0;
    PlanRequest request;
    ExperimentPlan plan;
    /** Null for plans recovered from the journal (submitter is gone). */
    std::shared_ptr<ClientConn> conn;
    std::size_t remaining = 0;
    std::size_t failed = 0;
    /** Crashed-cell retries spent; capped by request.retryCap. */
    unsigned retriesUsed = 0;
};

/** One schedulable unit: a cell of an admitted plan. */
struct SweepServer::CellTask
{
    std::shared_ptr<PlanState> plan;
    std::size_t cellIndex = 0;
    /** Zero-based execution attempt (drives the backoff exponent). */
    unsigned attempt = 0;
};

namespace
{

std::string
admitRecord(const std::string &plan_id, const std::string &client,
            int priority, const PlanRequest &request)
{
    return "{\"op\":\"admit\",\"planId\":\"" +
           JsonWriter::escape(plan_id) + "\",\"client\":\"" +
           JsonWriter::escape(client) +
           "\",\"priority\":" + std::to_string(priority) +
           ",\"plan\":" + serializePlanRequest(request) + "}";
}

std::string
doneRecord(const std::string &plan_id)
{
    return "{\"op\":\"done\",\"planId\":\"" +
           JsonWriter::escape(plan_id) + "\"}";
}

} // namespace

SweepServer::SweepServer(ServerOptions options)
    : options_(std::move(options)), plansJournal_(options_.plansJournalPath)
{
    if (options_.workers == 0)
        options_.workers = 1;
}

SweepServer::~SweepServer()
{
    requestStop();
    queueCv_.notify_all();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    reapConnections(true); // Empty unless run() exited by an exception.
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (int fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
    }
}

ServerStats
SweepServer::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

std::size_t
SweepServer::queuedCells() const
{
    MutexLock lock(mutex_);
    return queuedCells_;
}

std::size_t
SweepServer::connectionThreads() const
{
    MutexLock lock(mutex_);
    return connections_.size();
}

std::string
SweepServer::statsMessage() const
{
    MutexLock lock(mutex_);
    std::string out = "{\"type\":\"stats\"";
    out += ",\"plansAccepted\":" + std::to_string(stats_.plansAccepted);
    out += ",\"plansShed\":" + std::to_string(stats_.plansShed);
    out += ",\"plansResumed\":" + std::to_string(stats_.plansResumed);
    out += ",\"plansCompleted\":" +
           std::to_string(stats_.plansCompleted);
    out += ",\"cellsCompleted\":" +
           std::to_string(stats_.cellsCompleted);
    out += ",\"cellsFailed\":" + std::to_string(stats_.cellsFailed);
    out += ",\"cellsRetried\":" + std::to_string(stats_.cellsRetried);
    out += ",\"queuedCells\":" + std::to_string(queuedCells_);
    out += ",\"runningCells\":" + std::to_string(runningCells_);
    out += "}";
    return out;
}

void
SweepServer::enqueuePlan(const std::shared_ptr<PlanState> &plan)
{
    std::deque<CellTask> &queue = queues_[plan->client];
    for (std::size_t i = 0; i < plan->plan.size(); ++i)
        queue.push_back(CellTask{plan, i, 0});
    queuedCells_ += plan->plan.size();
    livePlans_[plan->id] = plan;
}

bool
SweepServer::recoverPlans(std::string *error)
{
    if (options_.plansJournalPath.empty())
        return true;
    std::vector<std::string> records;
    JournalRecovery report;
    if (!plansJournal_.recover(records, report, error))
        return false;
    if (!report.freshStart)
        logMessage(LogLevel::Inform, "plans journal: %s",
                   report.summary().c_str());

    struct Admit
    {
        std::string client;
        int priority = 0;
        PlanRequest request;
    };
    // Replay in order: admit registers, done retires. Last state wins.
    std::vector<std::pair<std::string, Admit>> admitted;
    for (const std::string &record : records) {
        JsonValue value;
        if (!parseJson(record, value) || !value.isObject())
            continue; // Foreign record; recovery already CRC-checked.
        const std::string op = value.stringOr("op", "");
        const std::string id = value.stringOr("planId", "");
        if (op == "admit") {
            const JsonValue *planValue = value.member("plan");
            Admit admit;
            std::string why;
            if (!planValue ||
                !parsePriority(value, admit.priority, why) ||
                !parsePlanRequest(*planValue, admit.request, why))
                continue;
            admit.client = value.stringOr("client", "(recovery)");
            admitted.emplace_back(id, std::move(admit));
        } else if (op == "done") {
            admitted.erase(
                std::remove_if(admitted.begin(), admitted.end(),
                               [&id](const auto &entry) {
                                   return entry.first == id;
                               }),
                admitted.end());
        }
    }

    MutexLock lock(mutex_);
    for (auto &[id, admit] : admitted) {
        auto plan = std::make_shared<PlanState>();
        plan->id = id;
        plan->client = admit.client;
        plan->priority = admit.priority;
        plan->request = admit.request;
        std::string why;
        if (!buildExperimentPlan(admit.request, plan->plan, why)) {
            logMessage(LogLevel::Warn,
                       "dropping unresumable plan %s: %s", id.c_str(),
                       why.c_str());
            continue;
        }
        plan->remaining = plan->plan.size();
        enqueuePlan(plan);
        ++stats_.plansResumed;
        // Keep new ids clear of every recovered one.
        if (id.size() > 1 && id[0] == 'p') {
            const std::uint64_t seq =
                std::strtoull(id.c_str() + 1, nullptr, 10);
            nextPlanSeq_ = std::max(nextPlanSeq_, seq + 1);
        }
    }
    return true;
}

bool
SweepServer::start(std::string *error)
{
    // Workers write event frames into sockets whose peer may have been
    // killed; without this a dead client would SIGPIPE the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    if (!recoverPlans(error))
        return false;

    if (::pipe(wakePipe_) != 0) {
        if (error)
            *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + options_.socketPath;
        return false;
    }
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 16) != 0) {
        if (error)
            *error = "bind/listen " + options_.socketPath + ": " +
                     std::strerror(errno);
        return false;
    }

    workers_.reserve(options_.workers);
    for (unsigned w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

int
SweepServer::run()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents & POLLIN)
            break; // requestStop() poked the pipe.
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<ClientConn>();
        conn->fd = fd;
        {
            MutexLock lock(mutex_);
            connections_.push_back(
                {conn, std::thread([this, conn] { connectionLoop(conn); })});
        }
        // The daemon holds a thread per open connection, not one per
        // connection it ever accepted.
        reapConnections(false);
    }

    // Graceful drain: no new connections or tasks; in-flight cells
    // finish (their results are already durable via the memo journal).
    stopping_.store(true, std::memory_order_release);
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(options_.socketPath.c_str());
    queueCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    // Unblock connection readers parked in readFrame(); their clients
    // already received every event the drained workers produced.
    reapConnections(true);

    persistQueuedPlans();
    MemoCache::shared().compact();
    return 0;
}

void
SweepServer::reapConnections(bool all)
{
    std::vector<Connection> reaped;
    {
        MutexLock lock(mutex_);
        const auto first =
            all ? connections_.begin()
                : std::partition(connections_.begin(), connections_.end(),
                                 [](const Connection &c) {
                                     return !c.conn->finished.load(
                                         std::memory_order_acquire);
                                 });
        std::move(first, connections_.end(), std::back_inserter(reaped));
        connections_.erase(first, connections_.end());
    }
    for (Connection &c : reaped) {
        ::shutdown(c.conn->fd, SHUT_RDWR); // Wakes a reader still parked.
        c.thread.join();
        ::close(c.conn->fd);
    }
}

void
SweepServer::requestStop()
{
    // Async-signal-safe: one atomic store and one pipe write. The CV
    // broadcast happens on the run() thread once poll() wakes.
    stopping_.store(true, std::memory_order_release);
    if (wakePipe_[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] const ssize_t n =
            ::write(wakePipe_[1], &byte, 1);
    }
}

void
SweepServer::connectionLoop(std::shared_ptr<ClientConn> conn)
{
    for (;;) {
        std::string payload;
        bool eof = false;
        if (!readFrame(conn->fd, payload, eof))
            break;
        JsonValue message;
        std::string why;
        if (!parseJson(payload, message, &why) || !message.isObject()) {
            conn->send(shedMessage("bad-request",
                                   "unparseable frame: " + why));
            break;
        }
        const std::string type = message.stringOr("type", "");
        if (type == "stats") {
            conn->send(statsMessage());
        } else if (type == "submit") {
            handleSubmit(conn, message);
        } else {
            conn->send(shedMessage("bad-request",
                                   "unknown message type '" + type +
                                       "'"));
            break;
        }
    }
    // No frame may follow: a worker past send()'s first alive check
    // re-checks under writeMutex. Shutdown tells the client at once;
    // the descriptor stays allocated until the reaper closes it.
    MutexLock lock(conn->writeMutex);
    conn->alive.store(false, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->finished.store(true, std::memory_order_release);
}

void
SweepServer::handleSubmit(const std::shared_ptr<ClientConn> &conn,
                          const JsonValue &message)
{
    const std::string client = message.stringOr("client", "anon");

    // Validation errors shed before touching the queue at all.
    int priority = 0;
    PlanRequest request;
    ExperimentPlan built;
    std::string why;
    const JsonValue *planValue = message.member("plan");
    if (!parsePriority(message, priority, why) || !planValue ||
        !parsePlanRequest(*planValue, request, why) ||
        !buildExperimentPlan(request, built, why)) {
        MutexLock lock(mutex_);
        ++stats_.plansShed;
        conn->send(shedMessage("bad-plan", why));
        return;
    }

    std::string plan_id;
    {
        MutexLock lock(mutex_);
        // Admission control: every rejection is an explicit frame sent
        // from this handler — a client never hangs waiting on a full
        // queue, and the bound holds no matter how many clients pile
        // on.
        if (stopping_.load(std::memory_order_acquire)) {
            ++stats_.plansShed;
            conn->send(shedMessage("draining", "daemon is stopping"));
            return;
        }
        if (queuedCells_ + built.size() > options_.maxQueuedCells) {
            ++stats_.plansShed;
            conn->send(shedMessage(
                "queue-full",
                std::to_string(queuedCells_) + " cells queued, plan of " +
                    std::to_string(built.size()) + " would exceed " +
                    std::to_string(options_.maxQueuedCells)));
            return;
        }
        const auto it = queues_.find(client);
        const std::size_t client_queued =
            it == queues_.end() ? 0 : it->second.size();
        if (client_queued + built.size() >
            options_.perClientQueuedCells) {
            ++stats_.plansShed;
            conn->send(shedMessage(
                "quota", "client '" + client + "' has " +
                             std::to_string(client_queued) +
                             " cells queued; quota is " +
                             std::to_string(
                                 options_.perClientQueuedCells)));
            return;
        }

        plan_id = "p" + std::to_string(nextPlanSeq_++);
        auto plan = std::make_shared<PlanState>();
        plan->id = plan_id;
        plan->client = client;
        plan->priority = priority;
        plan->request = request;
        plan->plan = std::move(built);
        plan->conn = conn;
        plan->remaining = plan->plan.size();
        enqueuePlan(plan);
        ++stats_.plansAccepted;
        conn->send(acceptedMessage(plan_id, plan->plan.size()));
    }
    // Durability point for the admission: after this record is on disk,
    // a SIGKILL cannot lose the plan — restart re-enqueues it.
    if (!options_.plansJournalPath.empty())
        plansJournal_.append(
            admitRecord(plan_id, client, priority, request));
    queueCv_.notify_all();
}

// Condition-variable waits go through mutex_.native(), which the
// capability analysis cannot see; the lock discipline here is the
// std::unique_lock itself.
bool
SweepServer::popTask(CellTask &task) LB_NO_THREAD_SAFETY_ANALYSIS
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    for (;;) {
        queueCv_.wait(lock, [this] {
            if (stopping_.load(std::memory_order_acquire))
                return true;
            for (const auto &[client, queue] : queues_) {
                if (!queue.empty())
                    return true;
            }
            return false;
        });
        if (stopping_.load(std::memory_order_acquire))
            return false; // Drain: queued work stays persisted.

        // Highest head priority wins; ties rotate round-robin across
        // clients so equal-priority submitters share the pool evenly.
        int best_priority = 0;
        bool found = false;
        for (const auto &[client, queue] : queues_) {
            if (queue.empty())
                continue;
            const int p = queue.front().plan->priority;
            if (!found || p > best_priority) {
                best_priority = p;
                found = true;
            }
        }
        if (!found)
            continue;
        // First candidate strictly after the cursor, wrapping.
        std::string chosen;
        for (int wrap = 0; wrap < 2 && chosen.empty(); ++wrap) {
            for (const auto &[client, queue] : queues_) {
                if (queue.empty() ||
                    queue.front().plan->priority != best_priority)
                    continue;
                if (wrap == 0 && client <= rrCursor_)
                    continue;
                chosen = client;
                break;
            }
        }
        if (chosen.empty())
            continue;
        rrCursor_ = chosen;
        std::deque<CellTask> &queue = queues_[chosen];
        task = queue.front();
        queue.pop_front();
        if (queue.empty())
            queues_.erase(chosen);
        --queuedCells_;
        ++runningCells_;
        return true;
    }
}

void
SweepServer::workerLoop()
{
    CellTask task;
    while (popTask(task)) {
        executeTask(task);
        task = CellTask{}; // Drop plan refs while blocked in popTask.
    }
}

void
SweepServer::executeTask(const CellTask &task)
{
    const PlanState &plan = *task.plan;
    EngineOptions engine;
    // A deadline needs a forked child so the alarm-based watchdog can
    // kill the cell without taking the worker down.
    engine.isolateCells =
        options_.isolateCells || plan.request.deadlineSec > 0;
    engine.cellTimeoutSec = plan.request.deadlineSec;
    const CellResult result = runExperimentCell(
        plan.plan.cells()[task.cellIndex], engine, task.cellIndex);

    if (result.outcome == RunOutcome::Crashed) {
        bool retry = false;
        {
            MutexLock lock(mutex_);
            if (task.plan->retriesUsed < plan.request.retryCap) {
                ++task.plan->retriesUsed;
                ++stats_.cellsRetried;
                retry = true;
            }
        }
        if (retry) {
            // Exponential backoff, then back of the client's queue.
            const unsigned shift = std::min(task.attempt, 10u);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                static_cast<std::uint64_t>(options_.retryBackoffMs)
                << shift));
            {
                MutexLock lock(mutex_);
                queues_[task.plan->client].push_back(CellTask{
                    task.plan, task.cellIndex, task.attempt + 1});
                ++queuedCells_;
                --runningCells_;
            }
            queueCv_.notify_all();
            return;
        }
    }
    deliverResult(task, result);
}

void
SweepServer::deliverResult(const CellTask &task, const CellResult &result)
{
    if (task.plan->conn)
        task.plan->conn->send(cellMessage(result));

    bool plan_done = false;
    std::size_t failed = 0;
    {
        MutexLock lock(mutex_);
        --runningCells_;
        ++stats_.cellsCompleted;
        if (!result.ok) {
            ++stats_.cellsFailed;
            ++task.plan->failed;
        }
        if (--task.plan->remaining == 0) {
            plan_done = true;
            failed = task.plan->failed;
            ++stats_.plansCompleted;
            livePlans_.erase(task.plan->id);
        }
    }
    if (!plan_done)
        return;
    // Retire the plan durably before telling the client: a kill between
    // the two at worst repeats memo-cached lookups on resume, never
    // loses the completion.
    if (!options_.plansJournalPath.empty())
        plansJournal_.append(doneRecord(task.plan->id));
    if (task.plan->conn)
        task.plan->conn->send(doneMessage(
            task.plan->id, task.plan->plan.size(), failed));
}

void
SweepServer::persistQueuedPlans()
{
    if (options_.plansJournalPath.empty())
        return;
    std::vector<std::string> records;
    {
        MutexLock lock(mutex_);
        for (const auto &[id, plan] : livePlans_) {
            records.push_back(admitRecord(id, plan->client,
                                          plan->priority,
                                          plan->request));
        }
    }
    // Compaction doubles as the done-marker fold: completed plans
    // simply are not in livePlans_ anymore.
    plansJournal_.checkpoint(records);
}

} // namespace lbsim
