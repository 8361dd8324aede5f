/**
 * @file
 * Unit tests for the register file: allocation and bank arbitration.
 */

#include <gtest/gtest.h>

#include "core/register_file.hpp"

namespace lbsim
{
namespace
{

GpuConfig
cfg()
{
    return GpuConfig{};
}

TEST(RegisterFile, GeometryMatchesTable1)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    EXPECT_EQ(rf.totalRegs(), 2048u); // 256 KB / 128 B.
    EXPECT_EQ(rf.freeRegs(), 2048u);
}

TEST(RegisterFile, FirstFitAllocatesBottomUp)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    const auto a = rf.allocate(256);
    const auto b = rf.allocate(256);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, 0u);
    EXPECT_EQ(*b, 256u);
    EXPECT_EQ(rf.allocatedRegs(), 512u);
}

TEST(RegisterFile, ReleaseMakesSpaceReusable)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    const auto a = rf.allocate(1024);
    const auto b = rf.allocate(1024);
    ASSERT_TRUE(a && b);
    EXPECT_FALSE(rf.allocate(1));
    rf.release(*a, 1024);
    const auto c = rf.allocate(512);
    ASSERT_TRUE(c);
    EXPECT_EQ(*c, 0u); // First fit reuses the freed low block.
}

TEST(RegisterFile, AllocationFailsWhenFragmented)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    const auto a = rf.allocate(1000);
    const auto b = rf.allocate(1000);
    ASSERT_TRUE(a && b);
    rf.release(*a, 1000);
    // 1048 total free but only 1000 contiguous.
    EXPECT_FALSE(rf.allocate(1024));
    EXPECT_TRUE(rf.allocate(1000));
}

TEST(RegisterFile, FreeRegsAboveCountsTail)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    rf.allocate(1024);
    EXPECT_EQ(rf.freeRegsAbove(512), 1024u);
    EXPECT_EQ(rf.freeRegsAbove(1024), 1024u);
    EXPECT_EQ(rf.freeRegsAbove(2000), 48u);
}

TEST(RegisterFile, IsAllocatedChecksWholeRange)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    rf.allocate(100);
    EXPECT_TRUE(rf.isAllocated(0, 100));
    EXPECT_FALSE(rf.isAllocated(50, 100));
    EXPECT_FALSE(rf.isAllocated(0, 0));
}

TEST(RegisterFile, SameBankAccessesConflict)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    rf.beginCycle(0);
    EXPECT_EQ(rf.accessRegister(0, false, 0), 0u);
    // Same bank (reg 16 with 16 banks) conflicts.
    EXPECT_GT(rf.accessRegister(16, false, 0), 0u);
    EXPECT_EQ(stats.rfBankConflicts, 1u);
}

TEST(RegisterFile, DifferentBanksDoNotConflict)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    rf.beginCycle(0);
    EXPECT_EQ(rf.accessRegister(0, false, 0), 0u);
    EXPECT_EQ(rf.accessRegister(1, false, 0), 0u);
    EXPECT_EQ(stats.rfBankConflicts, 0u);
}

TEST(RegisterFile, BeginCycleClearsBankState)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    rf.beginCycle(0);
    rf.accessRegister(0, false, 0);
    rf.beginCycle(1);
    EXPECT_EQ(rf.accessRegister(16, false, 1), 0u);
}

TEST(RegisterFile, OperandBurstCountsEachAccess)
{
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    rf.beginCycle(0);
    rf.accessOperands(0, 0, 3);
    EXPECT_EQ(stats.rfAccesses, 3u);
}

TEST(RegisterFile, OperandWalkStartsAtTheSumOfTwoBanks)
{
    // Issue hands over the bank of the warp's first register and the
    // bank of the operand's offset into it; the walk must charge the
    // banks of base, base + 1, ... exactly as dividing base would.
    for (const std::uint32_t banks : {16u, 12u}) {
        GpuConfig config = cfg();
        config.registerFileBanks = banks;
        SimStats stats;
        RegisterFile rf(config, &stats);
        for (RegNum base = 0; base < rf.totalRegs(); ++base) {
            for (const RegNum offset : {0u, base % 30}) {
                for (std::uint32_t count = 1; count <= 3; ++count) {
                    rf.beginCycle(0);
                    rf.accessOperands(rf.bankOf(base - offset),
                                      rf.bankOf(offset), count);
                    // A bank the walk charged conflicts with one more
                    // access this cycle; every other bank is still free.
                    for (std::uint32_t bank = 0; bank < banks; ++bank) {
                        bool walked = false;
                        for (std::uint32_t i = 0; i < count; ++i)
                            walked |= (base + i) % banks == bank;
                        ASSERT_EQ(rf.accessRegister(bank, false, 0) > 0,
                                  walked)
                            << "banks=" << banks << " base=" << base
                            << " offset=" << offset << " count=" << count
                            << " bank=" << bank;
                    }
                }
            }
        }
    }
}

TEST(RegisterFile, ArbitrateLineSharesBanksWithOperands)
{
    // CERF's unified structure: cache lines contend with operands.
    SimStats stats;
    RegisterFile rf(cfg(), &stats);
    rf.beginCycle(0);
    rf.accessOperands(0, 0, 1); // Bank 0.
    const Addr line_in_bank0 = 16 * kLineBytes; // lineIndex 16 % 16 = 0.
    EXPECT_GT(rf.arbitrateLine(line_in_bank0, false, 0), 0u);
    EXPECT_EQ(stats.rfBankConflicts, 1u);
}

} // namespace
} // namespace lbsim
