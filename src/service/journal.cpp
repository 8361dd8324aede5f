#include "service/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.hpp"
#include "common/fs.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

namespace lbsim
{
namespace
{

constexpr std::size_t kFrameHeaderBytes = 8;

void
putU32le(std::string &out, std::uint32_t value)
{
    out.push_back(static_cast<char>(value & 0xFF));
    out.push_back(static_cast<char>((value >> 8) & 0xFF));
    out.push_back(static_cast<char>((value >> 16) & 0xFF));
    out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

std::uint32_t
getU32le(const std::string &data, std::size_t offset)
{
    return static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[offset])) |
           (static_cast<std::uint32_t>(
                static_cast<unsigned char>(data[offset + 1]))
            << 8) |
           (static_cast<std::uint32_t>(
                static_cast<unsigned char>(data[offset + 2]))
            << 16) |
           (static_cast<std::uint32_t>(
                static_cast<unsigned char>(data[offset + 3]))
            << 24);
}

void
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
}

/** Best-effort sidecar for records recovery had to drop. */
void
quarantineRecord(const std::string &path, const std::string &payload,
                 std::uint32_t stored_crc, std::uint32_t computed_crc)
{
    std::ofstream out(path, std::ios::app | std::ios::binary);
    if (!out)
        return;
    char head[96];
    std::snprintf(head, sizeof(head),
                  "### quarantined record: %zu bytes, crc stored=%08x "
                  "computed=%08x\n",
                  payload.size(), stored_crc, computed_crc);
    out << head;
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    out << '\n';
}

} // namespace

std::string
JournalRecovery::summary() const
{
    std::ostringstream out;
    if (freshStart) {
        out << "fresh journal (no prior records)";
        return out.str();
    }
    out << recordsLoaded << " record(s) recovered";
    if (quarantined)
        out << ", " << quarantined << " corrupt record(s) quarantined";
    if (truncatedBytes)
        out << ", " << truncatedBytes << " torn tail byte(s) truncated";
    if (!quarantined && !truncatedBytes)
        out << ", clean";
    return out.str();
}

Journal::Journal(std::string path) : path_(std::move(path))
{
}

const char *
Journal::magicLine()
{
    return "lbsim-journal-v1";
}

std::string
Journal::frameRecord(const std::string &payload)
{
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    putU32le(frame, static_cast<std::uint32_t>(payload.size()));
    putU32le(frame, crc32(payload));
    frame += payload;
    return frame;
}

bool
Journal::recover(std::vector<std::string> &records,
                 JournalRecovery &report, std::string *error)
{
    records.clear();
    report = JournalRecovery{};

    std::string data;
    {
        std::ifstream probe(path_, std::ios::binary);
        if (!probe) {
            report.freshStart = true;
            return true;
        }
    }
    if (!readFileToString(path_, data, error))
        return false;

    const std::string magic = std::string(magicLine()) + "\n";
    if (data.size() < magic.size() ||
        data.compare(0, magic.size(), magic) != 0) {
        // Foreign or pre-journal file: nothing to load. The file is
        // left untouched; the first append (or checkpoint) resets it.
        report.freshStart = true;
        return true;
    }

    std::size_t pos = magic.size();
    std::size_t good_end = pos;  // End of the last intact frame.
    bool torn = false;
    while (pos < data.size()) {
        if (data.size() - pos < kFrameHeaderBytes) {
            torn = true;  // Header itself is torn.
            break;
        }
        const std::uint32_t length = getU32le(data, pos);
        const std::uint32_t stored_crc = getU32le(data, pos + 4);
        if (length > kMaxRecordBytes ||
            length > data.size() - pos - kFrameHeaderBytes) {
            // Either a torn tail or a corrupt length field; framing
            // cannot resync past it, so everything from here is tail.
            torn = true;
            break;
        }
        const std::string payload =
            data.substr(pos + kFrameHeaderBytes, length);
        const std::uint32_t computed_crc = crc32(payload);
        if (computed_crc == stored_crc) {
            records.push_back(payload);
        } else {
            ++report.quarantined;
            quarantineRecord(path_ + ".quarantine", payload, stored_crc,
                             computed_crc);
        }
        pos += kFrameHeaderBytes + length;
        good_end = pos;
    }
    report.recordsLoaded = records.size();
    if (torn)
        report.truncatedBytes =
            static_cast<std::uint64_t>(data.size() - good_end);

    // Repair: quarantined middles force a compaction (they cannot be
    // cut out in place); a torn tail alone only needs a truncate.
    if (report.quarantined > 0)
        return checkpoint(records, error);
    if (torn &&
        ::truncate(path_.c_str(), static_cast<off_t>(good_end)) != 0) {
        setError(error,
                 "truncate " + path_ + ": " + std::strerror(errno));
        return false;
    }
    return true;
}

bool
Journal::append(const std::string &payload, std::string *error)
{
    if (payload.size() > kMaxRecordBytes) {
        setError(error, "record exceeds kMaxRecordBytes");
        return false;
    }
    const int fd =
        ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        setError(error,
                 "open " + path_ + ": " + std::strerror(errno));
        return false;
    }
    // Exclusive lock: frames from concurrent writers (daemon workers,
    // crash-isolated children) must never interleave mid-frame.
    if (::flock(fd, LOCK_EX) != 0) {
        setError(error,
                 "flock " + path_ + ": " + std::strerror(errno));
        ::close(fd);
        return false;
    }

    std::string out;
    struct stat st
    {};
    if (::fstat(fd, &st) == 0 && st.st_size == 0)
        out = std::string(magicLine()) + "\n";
    out += frameRecord(payload);

    bool ok = true;
    std::size_t written = 0;
    while (written < out.size()) {
        const ssize_t n =
            ::write(fd, out.data() + written, out.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error,
                     "write " + path_ + ": " + std::strerror(errno));
            ok = false;
            break;
        }
        written += static_cast<std::size_t>(n);
    }
    // Durability point: once fsync returns, the record survives a
    // SIGKILL or power cut; before it, recovery truncates the tail.
    if (ok && ::fsync(fd) != 0) {
        setError(error,
                 "fsync " + path_ + ": " + std::strerror(errno));
        ok = false;
    }
    ::flock(fd, LOCK_UN);
    ::close(fd);
    return ok;
}

bool
Journal::checkpoint(const std::vector<std::string> &records,
                    std::string *error)
{
    std::string content = std::string(magicLine()) + "\n";
    for (const std::string &record : records)
        content += frameRecord(record);
    return atomicWriteFile(path_, content, error);
}

} // namespace lbsim
