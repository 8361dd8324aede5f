#include "common/fs.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace lbsim
{
namespace
{

void
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what + ": " + std::strerror(errno);
}

} // namespace

std::string
dirnameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

bool
atomicWriteFile(const std::string &path, const std::string &content,
                std::string *error)
{
    // The temp file must live in the destination directory: rename()
    // is only atomic within one filesystem.
    std::string temp = dirnameOf(path) + "/.lbsim-tmp-XXXXXX";
    const int fd = ::mkstemp(temp.data());
    if (fd < 0) {
        setError(error, "mkstemp " + temp);
        return false;
    }

    std::size_t written = 0;
    while (written < content.size()) {
        const ssize_t n = ::write(fd, content.data() + written,
                                  content.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error, "write " + temp);
            ::close(fd);
            ::unlink(temp.c_str());
            return false;
        }
        written += static_cast<std::size_t>(n);
    }

    // fsync before rename: otherwise a crash can promote an empty or
    // partial temp file over healthy old content.
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        setError(error, "fsync " + temp);
        ::unlink(temp.c_str());
        return false;
    }
    if (::rename(temp.c_str(), path.c_str()) != 0) {
        setError(error, "rename " + temp + " -> " + path);
        ::unlink(temp.c_str());
        return false;
    }
    return true;
}

bool
readFileToString(const std::string &path, std::string &out,
                 std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        if (error)
            *error = "read error on " + path;
        return false;
    }
    out = buffer.str();
    return true;
}

} // namespace lbsim
