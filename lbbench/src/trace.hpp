/**
 * @file
 * Tracing for the benchmark's traced runs.
 *
 * Two kinds of record, both kept in memory and written once at the end:
 *
 *  - Spans at the plan, cell, build and runKernel boundaries, each with
 *    its name, start, end, parent span and the cell id as trace id.
 *  - Per-call hooks on the simulator's public seams (SmControllerIf,
 *    VictimCacheIf, ResponseSinkIf, L1EventSinkIf). A hook adds to a
 *    count and a self time per cell instead of recording a span per
 *    call: a 16-SM cell makes tens of millions of such calls.
 *
 * Hook time is self time: a hook entered while another is running (a
 * victim eviction notice inside a crossbar response) is subtracted from
 * the outer hook, so layer shares never count a nanosecond twice.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sm.hpp"
#include "mem/interconnect.hpp"
#include "mem/l1_cache.hpp"
#include "mem/victim_if.hpp"

namespace lbbench
{

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** One timed interval. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the enclosing span in the log; -1 for a root. */
    int parent = -1;
    /** Cell id the span belongs to; 0 outside cells. */
    std::uint64_t traceId = 0;

    double seconds() const { return secondsBetween(startNs, endNs); }
};

/** Spans of one traced run, nested by begin/end order. */
class SpanLog
{
  public:
    /** Open a span under the innermost open one. @return its index. */
    int begin(const std::string &name, std::uint64_t trace_id = 0);
    /** Close span @p index and any span still open inside it. */
    void end(int index);
    /** Record a finished span with explicit times (client wire spans).
     *  @return its index. */
    int add(const std::string &name, std::uint64_t start_ns,
            std::uint64_t end_ns, int parent, std::uint64_t trace_id);

    const std::vector<Span> &spans() const { return spans_; }
    /** Durations of every span called @p name, in log order. */
    std::vector<double> durations(const std::string &name) const;
    /** Total seconds of every span called @p name. */
    double total(const std::string &name) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Opens a span for the lifetime of the scope. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const std::string &name,
              std::uint64_t trace_id = 0)
        : log_(log), index_(log.begin(name, trace_id))
    {}
    ~SpanScope() { log_.end(index_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog &log_;
    int index_;
};

/** Count and self time of one hooked call site. */
struct HookTotals
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    HookTotals &
    operator+=(const HookTotals &other)
    {
        calls += other.calls;
        ns += other.ns;
        return *this;
    }
};

/**
 * Per-cell accumulator of every hooked layer. One instance per traced
 * cell; the decorators below add to it from the (serial) tick loop.
 */
struct LayerCounters
{
    HookTotals lbOnCycle;
    HookTotals lbProbe;
    HookTotals lbNotify;
    std::uint64_t lbProbeHits = 0;
    /** PCAL, static warp limiter and CCWS: onCycle plus CCWS's L1
     *  observation taps. */
    HookTotals baselinesOnCycle;
    HookTotals baselinesTaps;
    HookTotals memResponses;
    /** Accesses the L1 accepted, and those served on chip (L1 tag hit
     *  or victim hit) — the useful outcomes. */
    std::uint64_t l1Accepted = 0;
    std::uint64_t l1OnChip = 0;
    /** SM ticks simulated for real (onCycle calls on every SM). */
    std::uint64_t realSmTicks = 0;
    /** SM cycles fast-forwarded by tick skipping. */
    std::uint64_t skippedSmCycles = 0;

    LayerCounters &operator+=(const LayerCounters &other);

    /** Self nanoseconds of every hook (lb + baselines + mem). */
    std::uint64_t hookedNs() const;
};

/**
 * Nesting-aware hook timer. Frames are kept on a fixed stack; the tick
 * loop is single-threaded (no --sm-threads in the benchmark), so one
 * clock per traced cell is enough.
 */
class HookClock
{
  public:
    /** Times one hooked call into @p totals for its lifetime. */
    class Scope
    {
      public:
        Scope(HookClock &clock, HookTotals &totals);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HookClock &clock_;
        HookTotals &totals_;
    };

  private:
    static constexpr int kMaxDepth = 16;
    struct Frame
    {
        std::uint64_t startNs = 0;
        std::uint64_t childNs = 0;
    };
    Frame frames_[kMaxDepth];
    int depth_ = 0;
};

/**
 * SmControllerIf decorator: times onCycle into @p on_cycle and, as the
 * outermost controller of its SM, counts the SM's real ticks and skipped
 * cycles. Every other callback forwards untimed (they are per-warp and
 * their cost stays in runKernel's unattributed time). With a null @p inner it reproduces the null
 * controller exactly — never gates issue, never bounds a skip, never
 * takes a scheduling opportunity — so Baseline and CERF cells can be
 * counted without changing their results.
 */
class TimedController : public lbsim::SmControllerIf
{
  public:
    TimedController(lbsim::SmControllerIf *inner, HookClock &clock,
                    LayerCounters &counters, HookTotals &on_cycle,
                    bool outermost);

    void onCycle(lbsim::Sm &sm, lbsim::Cycle now) override;
    bool warpMayIssue(const lbsim::Sm &sm,
                      const lbsim::Warp &warp) const override;
    bool warpBypassesL1(const lbsim::Sm &sm,
                        const lbsim::Warp &warp) const override;
    void onCtaLaunched(lbsim::Sm &sm, lbsim::Cta &cta,
                       lbsim::Cycle now) override;
    void onCtaCompleted(lbsim::Sm &sm, lbsim::Cta &cta,
                        lbsim::Cycle now) override;
    bool onSchedulingOpportunity(lbsim::Sm &sm, lbsim::Cycle now) override;
    void onMeasurementReset(lbsim::Sm &sm, lbsim::Cycle now) override;
    lbsim::Cycle nextEventCycle(const lbsim::Sm &sm,
                                lbsim::Cycle now) const override;
    void onCyclesSkipped(lbsim::Sm &sm, lbsim::Cycle cycles) override;
    bool wantsSchedulingOpportunity(const lbsim::Sm &sm) const override;
    std::string statusString() const override;

  private:
    lbsim::SmControllerIf *inner_;
    HookClock &clock_;
    LayerCounters &counters_;
    HookTotals &onCycle_;
    bool outermost_;
};

/** VictimCacheIf decorator timing probes and notifications. */
class TimedVictim : public lbsim::VictimCacheIf
{
  public:
    /** @param probe_hits Incremented on every data hit. */
    TimedVictim(lbsim::VictimCacheIf *inner, HookClock &clock,
                HookTotals &probe, HookTotals &notify,
                std::uint64_t &probe_hits);

    lbsim::VictimProbeResult probeVictim(lbsim::Addr line_addr,
                                         lbsim::Cycle now) override;
    void notifyEviction(lbsim::Addr line_addr, std::uint8_t hpc,
                        std::uint8_t owner_warp, lbsim::Cycle now) override;
    void notifyAccess(lbsim::Addr line_addr, lbsim::Pc pc,
                      std::uint8_t hpc, std::uint8_t warp_slot, bool hit,
                      lbsim::Cycle now) override;
    void notifyStore(lbsim::Addr line_addr, lbsim::Cycle now) override;

  private:
    lbsim::VictimCacheIf *inner_;
    HookClock &clock_;
    HookTotals &probe_;
    HookTotals &notify_;
    std::uint64_t &probeHits_;
};

/** ResponseSinkIf decorator between the crossbar and one SM. */
class TimedSink : public lbsim::ResponseSinkIf
{
  public:
    TimedSink(lbsim::ResponseSinkIf *inner, HookClock &clock,
              HookTotals &responses);

    void onResponse(const lbsim::MemResponse &response,
                    lbsim::Cycle now) override;

  private:
    lbsim::ResponseSinkIf *inner_;
    HookClock &clock_;
    HookTotals &responses_;
};

/** L1EventSinkIf counting accepted accesses and their outcomes. */
class L1OutcomeCounter : public lbsim::L1EventSinkIf
{
  public:
    explicit L1OutcomeCounter(LayerCounters &counters);

    void onAccessOutcome(const lbsim::L1Access &access,
                         lbsim::L1Outcome outcome,
                         lbsim::Cycle now) override;
    void onFill(lbsim::Addr line_addr, bool allocated,
                const std::optional<lbsim::Eviction> &evicted,
                lbsim::Cycle now) override;
    void onFlush() override;

  private:
    LayerCounters &counters_;
};

} // namespace lbbench
