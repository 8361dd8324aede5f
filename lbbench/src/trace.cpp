#include "trace.hpp"

#include <stdexcept>

namespace lbbench
{

using lbsim::Cycle;

int
SpanLog::begin(const std::string &name, std::uint64_t trace_id)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.traceId = trace_id;
    spans_.push_back(span);
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    spans_[index].startNs = nowNs();
    return index;
}

void
SpanLog::end(int index)
{
    // Spans left open by an exception unwinding past them close with
    // their parent, so the log stays well nested.
    const std::uint64_t now = nowNs();
    while (!open_.empty()) {
        const int top = open_.back();
        open_.pop_back();
        spans_[top].endNs = now;
        if (top == index)
            break;
    }
}

int
SpanLog::add(const std::string &name, std::uint64_t start_ns,
             std::uint64_t end_ns, int parent, std::uint64_t trace_id)
{
    spans_.push_back(Span{name, start_ns, end_ns, parent, trace_id});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.name == name)
            out.push_back(span.seconds());
    }
    return out;
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

LayerCounters &
LayerCounters::operator+=(const LayerCounters &other)
{
    lbOnCycle += other.lbOnCycle;
    lbProbe += other.lbProbe;
    lbNotify += other.lbNotify;
    lbProbeHits += other.lbProbeHits;
    baselinesOnCycle += other.baselinesOnCycle;
    baselinesTaps += other.baselinesTaps;
    memResponses += other.memResponses;
    l1Accepted += other.l1Accepted;
    l1OnChip += other.l1OnChip;
    realSmTicks += other.realSmTicks;
    skippedSmCycles += other.skippedSmCycles;
    return *this;
}

std::uint64_t
LayerCounters::hookedNs() const
{
    return lbOnCycle.ns + lbProbe.ns + lbNotify.ns + baselinesOnCycle.ns +
        baselinesTaps.ns + memResponses.ns;
}

HookClock::Scope::Scope(HookClock &clock, HookTotals &totals)
    : clock_(clock), totals_(totals)
{
    if (clock_.depth_ >= kMaxDepth)
        throw std::logic_error("hook nesting deeper than HookClock allows");
    clock_.frames_[clock_.depth_++] = Frame{nowNs(), 0};
}

HookClock::Scope::~Scope()
{
    const Frame frame = clock_.frames_[--clock_.depth_];
    const std::uint64_t elapsed = nowNs() - frame.startNs;
    ++totals_.calls;
    totals_.ns += elapsed - frame.childNs;
    if (clock_.depth_ > 0)
        clock_.frames_[clock_.depth_ - 1].childNs += elapsed;
}

// --- TimedController --------------------------------------------------------

TimedController::TimedController(lbsim::SmControllerIf *inner,
                                 HookClock &clock, LayerCounters &counters,
                                 HookTotals &on_cycle, bool outermost)
    : inner_(inner), clock_(clock), counters_(counters), onCycle_(on_cycle),
      outermost_(outermost)
{
}

void
TimedController::onCycle(lbsim::Sm &sm, Cycle now)
{
    if (outermost_)
        ++counters_.realSmTicks;
    if (!inner_)
        return;
    HookClock::Scope scope(clock_, onCycle_);
    inner_->onCycle(sm, now);
}

bool
TimedController::warpMayIssue(const lbsim::Sm &sm,
                              const lbsim::Warp &warp) const
{
    return inner_ ? inner_->warpMayIssue(sm, warp) : true;
}

bool
TimedController::warpBypassesL1(const lbsim::Sm &sm,
                                const lbsim::Warp &warp) const
{
    return inner_ ? inner_->warpBypassesL1(sm, warp) : false;
}

void
TimedController::onCtaLaunched(lbsim::Sm &sm, lbsim::Cta &cta, Cycle now)
{
    if (inner_)
        inner_->onCtaLaunched(sm, cta, now);
}

void
TimedController::onCtaCompleted(lbsim::Sm &sm, lbsim::Cta &cta, Cycle now)
{
    if (inner_)
        inner_->onCtaCompleted(sm, cta, now);
}

bool
TimedController::onSchedulingOpportunity(lbsim::Sm &sm, Cycle now)
{
    return inner_ ? inner_->onSchedulingOpportunity(sm, now) : false;
}

void
TimedController::onMeasurementReset(lbsim::Sm &sm, Cycle now)
{
    if (inner_)
        inner_->onMeasurementReset(sm, now);
}

Cycle
TimedController::nextEventCycle(const lbsim::Sm &sm, Cycle now) const
{
    // A null controller imposes no bound; kNoCycle is the neutral one.
    return inner_ ? inner_->nextEventCycle(sm, now) : lbsim::kNoCycle;
}

void
TimedController::onCyclesSkipped(lbsim::Sm &sm, Cycle cycles)
{
    if (outermost_)
        counters_.skippedSmCycles += cycles;
    if (inner_)
        inner_->onCyclesSkipped(sm, cycles);
}

bool
TimedController::wantsSchedulingOpportunity(const lbsim::Sm &sm) const
{
    return inner_ ? inner_->wantsSchedulingOpportunity(sm) : false;
}

std::string
TimedController::statusString() const
{
    return inner_ ? inner_->statusString() : std::string();
}

// --- TimedVictim ------------------------------------------------------------

TimedVictim::TimedVictim(lbsim::VictimCacheIf *inner, HookClock &clock,
                         HookTotals &probe, HookTotals &notify,
                         std::uint64_t &probe_hits)
    : inner_(inner), clock_(clock), probe_(probe), notify_(notify),
      probeHits_(probe_hits)
{
}

lbsim::VictimProbeResult
TimedVictim::probeVictim(lbsim::Addr line_addr, Cycle now)
{
    lbsim::VictimProbeResult result;
    {
        HookClock::Scope scope(clock_, probe_);
        result = inner_->probeVictim(line_addr, now);
    }
    if (result.hit)
        ++probeHits_;
    return result;
}

void
TimedVictim::notifyEviction(lbsim::Addr line_addr, std::uint8_t hpc,
                            std::uint8_t owner_warp, Cycle now)
{
    HookClock::Scope scope(clock_, notify_);
    inner_->notifyEviction(line_addr, hpc, owner_warp, now);
}

void
TimedVictim::notifyAccess(lbsim::Addr line_addr, lbsim::Pc pc,
                          std::uint8_t hpc, std::uint8_t warp_slot,
                          bool hit, Cycle now)
{
    HookClock::Scope scope(clock_, notify_);
    inner_->notifyAccess(line_addr, pc, hpc, warp_slot, hit, now);
}

void
TimedVictim::notifyStore(lbsim::Addr line_addr, Cycle now)
{
    HookClock::Scope scope(clock_, notify_);
    inner_->notifyStore(line_addr, now);
}

// --- TimedSink / L1OutcomeCounter -------------------------------------------

TimedSink::TimedSink(lbsim::ResponseSinkIf *inner, HookClock &clock,
                     HookTotals &responses)
    : inner_(inner), clock_(clock), responses_(responses)
{
}

void
TimedSink::onResponse(const lbsim::MemResponse &response, Cycle now)
{
    HookClock::Scope scope(clock_, responses_);
    inner_->onResponse(response, now);
}

L1OutcomeCounter::L1OutcomeCounter(LayerCounters &counters)
    : counters_(counters)
{
}

void
L1OutcomeCounter::onAccessOutcome(const lbsim::L1Access &,
                                  lbsim::L1Outcome outcome, Cycle)
{
    ++counters_.l1Accepted;
    if (outcome == lbsim::L1Outcome::Hit ||
        outcome == lbsim::L1Outcome::VictimHit)
        ++counters_.l1OnChip;
}

void
L1OutcomeCounter::onFill(lbsim::Addr, bool,
                         const std::optional<lbsim::Eviction> &, Cycle)
{
}

void
L1OutcomeCounter::onFlush()
{
}

} // namespace lbbench
