#include "lb/throttle_logic.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

void
IpcMonitor::endWindow(std::uint64_t instructions_issued, Cycle period)
{
    const std::uint64_t delta = instructions_issued - lastIssued_;
    lastIssued_ = instructions_issued;
    currentIpc_ = period ? static_cast<double>(delta) / period : 0.0;
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
