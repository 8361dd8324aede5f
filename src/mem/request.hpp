/**
 * @file
 * Request/response types flowing between L1 caches and memory partitions.
 */

#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace lbsim
{

/** What a downstream (post-L1) request carries. */
enum class RequestKind : std::uint8_t
{
    DataRead,     ///< L1 miss fill (or bypass read).
    DataWrite,    ///< Write-through store (write-evict / no-allocate).
    RegBackup,    ///< Linebacker register backup write.
    RegRestore,   ///< Linebacker register restore read.
};

/** A line-granular request sent from an SM toward the memory partitions. */
struct MemRequest
{
    Addr lineAddr = kNoAddr;
    RequestKind kind = RequestKind::DataRead;
    std::uint32_t smId = 0;
};

/** A response delivered back to the requesting SM. */
struct MemResponse
{
    Addr lineAddr = kNoAddr;
    RequestKind kind = RequestKind::DataRead;
    std::uint32_t smId = 0;
    Cycle ready = 0;
};

/** Human-readable name of a request kind (for reports and ledgers). */
constexpr const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::DataRead:
        return "DataRead";
      case RequestKind::DataWrite:
        return "DataWrite";
      case RequestKind::RegBackup:
        return "RegBackup";
      case RequestKind::RegRestore:
        return "RegRestore";
    }
    return "?";
}

/** Returns true for request kinds that produce a response. */
constexpr bool
needsResponse(RequestKind kind)
{
    return kind == RequestKind::DataRead || kind == RequestKind::RegRestore;
}

} // namespace lbsim
