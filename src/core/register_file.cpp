#include "core/register_file.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

RegisterFile::RegisterFile(const GpuConfig &cfg, SimStats *stats)
    : stats_(stats), totalRegs_(cfg.totalWarpRegisters()),
      numBanks_(cfg.registerFileBanks), allocated_(totalRegs_, false),
      bankUse_(numBanks_, 0)
{
}

std::optional<RegNum>
RegisterFile::allocate(std::uint32_t num_regs)
{
    if (num_regs == 0 || num_regs > totalRegs_)
        return std::nullopt;
    std::uint32_t run = 0;
    for (std::uint32_t rn = 0; rn < totalRegs_; ++rn) {
        run = allocated_[rn] ? 0 : run + 1;
        if (run == num_regs) {
            const RegNum first = rn + 1 - num_regs;
            for (std::uint32_t i = first; i <= rn; ++i)
                allocated_[i] = true;
            allocatedRegs_ += num_regs;
            return first;
        }
    }
    return std::nullopt;
}

void
RegisterFile::release(RegNum first, std::uint32_t num_regs)
{
    if (first + num_regs > totalRegs_)
        panic("register release [%u, %u) out of range", first,
              first + num_regs);
    for (std::uint32_t rn = first; rn < first + num_regs; ++rn) {
        if (!allocated_[rn])
            panic("double release of register %u", rn);
        allocated_[rn] = false;
    }
    allocatedRegs_ -= num_regs;
}

std::uint32_t
RegisterFile::freeRegsAbove(RegNum first) const
{
    std::uint32_t count = 0;
    for (std::uint32_t rn = first; rn < totalRegs_; ++rn)
        count += allocated_[rn] ? 0 : 1;
    return count;
}

bool
RegisterFile::isAllocated(RegNum first, std::uint32_t num) const
{
    if (first + num > totalRegs_)
        return false;
    for (std::uint32_t rn = first; rn < first + num; ++rn) {
        if (!allocated_[rn])
            return false;
    }
    return num > 0;
}

void
RegisterFile::beginCycle(Cycle now)
{
    (void)now;
    std::fill(bankUse_.begin(), bankUse_.end(), 0);
}

std::uint32_t
RegisterFile::accessRegister(RegNum reg, bool is_write, Cycle now)
{
    (void)is_write;
    (void)now;
    return chargeBank(bankOf(reg));
}

std::uint32_t
RegisterFile::arbitrateLine(Addr line_addr, bool is_write, Cycle now)
{
    (void)is_write;
    (void)now;
    return chargeBank(static_cast<std::uint32_t>(lineIndex(line_addr) %
                                                 numBanks_));
}

void
RegisterFile::audit() const
{
    StateDumpScope dump([this] { return debugString(); });
    std::uint32_t set_bits = 0;
    for (bool bit : allocated_)
        set_bits += bit ? 1 : 0;
    LB_AUDIT(set_bits == allocatedRegs_,
             "allocation counter %u disagrees with bitmap population %u",
             allocatedRegs_, set_bits);
    LB_AUDIT(allocatedRegs_ <= totalRegs_,
             "allocation counter %u exceeds register file size %u",
             allocatedRegs_, totalRegs_);
}

std::string
RegisterFile::debugString() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "RegisterFile: %u/%u allocated, %u banks\n",
                  allocatedRegs_, totalRegs_, numBanks_);
    std::string out = buf;
    // Render the bitmap as allocated runs; full dumps are 2048 wide.
    std::uint32_t run_start = 0;
    bool in_run = false;
    for (std::uint32_t rn = 0; rn <= totalRegs_; ++rn) {
        const bool bit = rn < totalRegs_ && allocated_[rn];
        if (bit && !in_run) {
            run_start = rn;
            in_run = true;
        } else if (!bit && in_run) {
            std::snprintf(buf, sizeof(buf), "allocated [%u, %u)\n",
                          run_start, rn);
            out += buf;
            in_run = false;
        }
    }
    return out;
}

void
RegisterFile::corruptAllocCounterForTest(std::uint32_t delta)
{
    allocatedRegs_ += delta;
}

} // namespace lbsim
