/**
 * @file
 * SM register file with bank-conflict modelling and allocation tracking.
 *
 * The 256 KB register file (Table 1) holds 2048 warp registers of 128 B.
 * Registers are allocated to CTAs bottom-up first-fit; the space above
 * the allocation watermark is the Statically Unused Register file (SUR),
 * and the registers of throttled CTAs are the Dynamically Unused Register
 * file (DUR). Per-cycle bank arbitration counts conflicts between warp
 * operand accesses, victim-line accesses (Linebacker), and unified cache
 * accesses (CERF) — the data behind Fig 16.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/l1_cache.hpp"

namespace lbsim
{

/** Register file of one SM. */
class RegisterFile : public BankArbiterIf
{
  public:
    RegisterFile(const GpuConfig &cfg, SimStats *stats);

    // --- Allocation -------------------------------------------------------

    /**
     * Allocate @p num_regs contiguous warp registers (first fit).
     * @return First register number, or nullopt if no gap fits.
     */
    std::optional<RegNum> allocate(std::uint32_t num_regs);

    /** Release [first, first + num_regs). */
    void release(RegNum first, std::uint32_t num_regs);

    std::uint32_t totalRegs() const { return totalRegs_; }
    std::uint32_t allocatedRegs() const { return allocatedRegs_; }
    std::uint32_t freeRegs() const { return totalRegs_ - allocatedRegs_; }

    /** Free registers with RN >= @p first (victim-space sizing). */
    std::uint32_t freeRegsAbove(RegNum first) const;

    /** True if [first, first+num) is currently allocated. */
    bool isAllocated(RegNum first, std::uint32_t num) const;

    // --- Per-cycle bank arbitration ----------------------------------------

    /** Reset bank occupancy (call once per core cycle). */
    void beginCycle(Cycle now);

    /**
     * Account @p count operand accesses to consecutive registers whose
     * first one sits in bank (@p warp_bank + @p offset_bank) mod banks:
     * the bank of the warp's first register plus the bank of the
     * operand's offset into it, both tabulated before issue. Each is
     * below the bank count, so one subtraction reduces their sum.
     * @return Extra delay cycles from bank conflicts.
     */
    std::uint32_t
    accessOperands(std::uint32_t warp_bank, std::uint32_t offset_bank,
                   std::uint32_t count)
    {
        std::uint32_t bank = warp_bank + offset_bank;
        if (bank >= numBanks_)
            bank -= numBanks_;
        std::uint32_t delay = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            delay += chargeBank(bank);
            if (++bank == numBanks_)
                bank = 0;
        }
        return delay;
    }

    /**
     * Account one full-line access to register @p reg (victim cache
     * read/write or Linebacker backup/restore staging).
     * @return Extra delay cycles from bank conflicts.
     */
    std::uint32_t accessRegister(RegNum reg, bool is_write, Cycle now);

    /** BankArbiterIf: CERF unified-structure cache access. */
    std::uint32_t arbitrateLine(Addr line_addr, bool is_write,
                                Cycle now) override;

    std::uint32_t
    bankOf(RegNum reg) const
    {
        return reg % numBanks_;
    }

    /**
     * Conservation auditor: the allocated-register counter must equal
     * the population count of the allocation bitmap.
     */
    void audit() const;

    /** Allocation summary for failure reports. */
    std::string debugString() const;

    /**
     * Force the allocation counter out of sync so tests can prove the
     * auditor trips. Never call from simulator code.
     */
    void corruptAllocCounterForTest(std::uint32_t delta);

  private:
    /** Charge one access to @p bank; returns conflict delay. */
    std::uint32_t
    chargeBank(std::uint32_t bank)
    {
        LB_ASSERT(bank < numBanks_, "bank %u out of %u", bank, numBanks_);
        ++stats_->rfAccesses;
        const std::uint8_t prior = bankUse_[bank];
        if (bankUse_[bank] < 255)
            ++bankUse_[bank];
        if (prior > 0) {
            ++stats_->rfBankConflicts;
            return prior;
        }
        return 0;
    }

    SimStats *stats_;
    std::uint32_t totalRegs_;
    std::uint32_t numBanks_;
    std::uint32_t allocatedRegs_ = 0;
    std::vector<bool> allocated_;
    std::vector<std::uint8_t> bankUse_;   ///< Accesses this cycle per bank.
};

} // namespace lbsim
