#include "lb/throttle_logic.hpp"

#include <cstdio>
#include <iterator>

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

const char *
reasonName(ThrottleReason reason)
{
    static const char *const kNames[] = {
        "Monitoring", "Proactive", "TransferWait",   "Settle",
        "Rise",       "Recovery",  "Floor",          "Overshoot",
        "Degraded",   "FirstFall", "StaleReference", "Stable",
        "StepBack",   "SlotFreed",
    };
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(ThrottleReason::SlotFreed) + 1);
    return kNames[static_cast<std::size_t>(reason)];
}

const char *
actionName(ThrottleAction action)
{
    static const char *const kNames[] = {"none", "throttle", "reactivate"};
    return kNames[static_cast<std::size_t>(action)];
}

ThrottleDecision
decideWindow(const ThrottleState &state, const WindowSample &sample,
             const LbConfig &lb)
{
    using Act = ThrottleAction;
    using Why = ThrottleReason;
    ThrottleDecision d{Act::None, Why::Monitoring, 0.0, state};
    ThrottleState &next = d.next;
    next.windowStartIssued = sample.instructionsIssued;
    const std::uint64_t issued =
        sample.instructionsIssued - state.windowStartIssued;
    const double cur = d.ipc =
        lb.monitorPeriod ? static_cast<double>(issued) / lb.monitorPeriod
                         : 0.0;
    const auto decide = [&](Act action, Why reason) {
        d.action = action;
        d.reason = reason;
        // The window after a throttle carries its transient (backup
        // traffic, cold victim lines) and is skipped.
        if (action == Act::Throttle) {
            next.lastAction = Act::Throttle;
            next.settle = true;
        }
        return d;
    };

    if (sample.phase == WindowPhase::Monitoring)
        return d;
    if (sample.phase == WindowPhase::Selection) {
        // The kernel is cache sensitive: proactively throttle one CTA
        // right after the monitoring period (Section 3.2). The last
        // monitoring window serves as the unthrottled reference.
        next.refIpc = cur;
        return decide(sample.activeCtas > 0 ? Act::Throttle : Act::None,
                      Why::Proactive);
    }
    // Postpone decisions while a backup/restore is still in flight; the
    // IPC sample would mix two configurations.
    if (sample.transferInFlight)
        return decide(Act::None, Why::TransferWait);
    // Decisions compare settled windows against the last settled
    // reference.
    if (state.settle) {
        next.settle = false;
        return decide(Act::None, Why::Settle);
    }
    const double var =
        state.refIpc > 0.0 ? (cur - state.refIpc) / state.refIpc : 0.0;

    // Remember the best settled configuration. The record decays slowly
    // so a stale transient peak cannot be chased forever.
    next.bestIpc *= 0.99;
    if (cur > next.bestIpc) {
        next.bestIpc = cur;
        next.bestActiveCtas = sample.activeCtas;
    }

    if (var > lb.ipcVarUpper) {
        next.consecutiveBad = 0;
        // An IPC rise right after undoing a bad throttle is the recovery
        // itself, not evidence that throttling helps — re-throttling
        // here would oscillate forever.
        if (state.lastAction == Act::Reactivate) {
            next.lastAction = Act::None;
            next.refIpc = cur;
            return decide(Act::None, Why::Recovery);
        }
        if (sample.activeCtas <= 1)
            return decide(Act::None, Why::Floor);
        next.refIpc = cur;
        return decide(Act::Throttle, Why::Rise);
    }
    if (var < lb.ipcVarLower) {
        // A single bad window right after marching is often an
        // overshoot; persistent degradation (two windows) reverts.
        const bool fresh = state.lastAction == Act::Throttle;
        ++next.consecutiveBad;
        if ((fresh || next.consecutiveBad >= 2) && sample.canReactivate) {
            next.lastAction = Act::Reactivate;
            next.settle = true;
            next.consecutiveBad = 0;
            next.refIpc = cur;
            return decide(Act::Reactivate,
                          fresh ? Why::Overshoot : Why::Degraded);
        }
        if (next.consecutiveBad < 2)
            return decide(Act::None, Why::FirstFall);
        // Nothing to re-activate; track the measured state so the
        // controller is not stuck against a stale high-water mark.
        next.refIpc = cur;
        next.consecutiveBad = 0;
        return decide(Act::None, Why::StaleReference);
    }
    next.consecutiveBad = 0;
    next.lastAction = Act::None;
    next.refIpc = cur;
    // Well below the best configuration on record (e.g.\ after reverting
    // on a CTA-rotation transient): step back toward it rather than
    // idling in an inferior state.
    if (cur < 0.85 * next.bestIpc) {
        const std::uint32_t active = sample.activeCtas;
        if (active > next.bestActiveCtas && active > 1)
            return decide(Act::Throttle, Why::StepBack);
        if (active < next.bestActiveCtas && sample.canReactivate)
            return decide(Act::Reactivate, Why::StepBack);
    }
    return decide(Act::None, Why::Stable);
}

CtaManager::CtaManager(std::uint32_t max_ctas) : table_(max_ctas)
{
}

void
CtaManager::beginKernel(std::uint32_t regs_per_cta, Addr backup_base)
{
    regsPerCta_ = regs_per_cta;
    backupBase_ = backup_base;
    bp_ = backup_base;
    for (PerCtaInfo &info : table_)
        info = PerCtaInfo{};
}

void
CtaManager::onLaunch(std::uint32_t cta_hw_id, RegNum frn)
{
    PerCtaInfo &info = table_.at(cta_hw_id);
    info.act = true;
    info.frn = frn;
    info.ba = kNoAddr;
    info.c = false;
}

void
CtaManager::onComplete(std::uint32_t cta_hw_id)
{
    table_.at(cta_hw_id) = PerCtaInfo{};
}

Addr
CtaManager::markThrottled(std::uint32_t cta_hw_id)
{
    PerCtaInfo &info = table_.at(cta_hw_id);
    if (!info.act)
        panic("throttling an already inactive CTA %u", cta_hw_id);
    info.act = false;
    info.c = false;
    info.ba = bp_;
    bp_ += static_cast<Addr>(regsPerCta_) * kLineBytes;
    return info.ba;
}

void
CtaManager::markBackupComplete(std::uint32_t cta_hw_id)
{
    table_.at(cta_hw_id).c = true;
}

Addr
CtaManager::markReactivated(std::uint32_t cta_hw_id)
{
    PerCtaInfo &info = table_.at(cta_hw_id);
    if (info.act)
        panic("re-activating an already active CTA %u", cta_hw_id);
    info.act = true;
    info.c = false;
    const Addr ba = info.ba;
    info.ba = kNoAddr;
    bp_ -= static_cast<Addr>(regsPerCta_) * kLineBytes;
    return ba;
}

const PerCtaInfo &
CtaManager::info(std::uint32_t cta_hw_id) const
{
    return table_.at(cta_hw_id);
}

void
CtaManager::audit() const
{
    StateDumpScope dump([this] { return debugString(); });

    LB_AUDIT(bp_ >= backupBase_,
             "backup pointer %llx rewound below the base %llx",
             static_cast<unsigned long long>(bp_),
             static_cast<unsigned long long>(backupBase_));

    const Addr stride = static_cast<Addr>(regsPerCta_) * kLineBytes;
    std::uint32_t with_ba = 0;
    for (std::uint32_t cta = 0; cta < table_.size(); ++cta) {
        const PerCtaInfo &info = table_[cta];
        LB_AUDIT(!info.c || !info.act,
                 "CTA %u has the backup-complete bit set while active",
                 cta);
        LB_AUDIT(info.act || info.ba != kNoAddr,
                 "throttled CTA %u holds no backup address", cta);
        if (info.ba == kNoAddr)
            continue;
        ++with_ba;
        LB_AUDIT(info.ba >= backupBase_ && info.ba < bp_,
                 "CTA %u backup address %llx outside [%llx, %llx)", cta,
                 static_cast<unsigned long long>(info.ba),
                 static_cast<unsigned long long>(backupBase_),
                 static_cast<unsigned long long>(bp_));
        LB_AUDIT(stride == 0 || (info.ba - backupBase_) % stride == 0,
                 "CTA %u backup address %llx misaligned to the %llu-byte "
                 "per-CTA stride",
                 cta, static_cast<unsigned long long>(info.ba),
                 static_cast<unsigned long long>(stride));
    }

    LB_AUDIT(bp_ - backupBase_ == static_cast<Addr>(with_ba) * stride,
             "backup pointer advanced %llu bytes but %u CTAs x %llu "
             "bytes are assigned",
             static_cast<unsigned long long>(bp_ - backupBase_), with_ba,
             static_cast<unsigned long long>(stride));
}

std::string
CtaManager::debugString() const
{
    char buf[112];
    std::snprintf(buf, sizeof(buf),
                  "CtaManager: regsPerCta=%u base=%llx bp=%llx\n",
                  regsPerCta_, static_cast<unsigned long long>(backupBase_),
                  static_cast<unsigned long long>(bp_));
    std::string out = buf;
    for (std::uint32_t cta = 0; cta < table_.size(); ++cta) {
        const PerCtaInfo &info = table_[cta];
        if (info.act && info.ba == kNoAddr && !info.c)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "cta=%u act=%d c=%d frn=%u ba=%llx\n", cta,
                      info.act ? 1 : 0, info.c ? 1 : 0, info.frn,
                      static_cast<unsigned long long>(info.ba));
        out += buf;
    }
    return out;
}

} // namespace lbsim
