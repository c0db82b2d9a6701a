#include "persist/storage.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace mtpu::persist {

namespace {

/** RAII file descriptor so every error path closes. */
class Fd
{
  public:
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }
    bool ok() const { return fd_ >= 0; }

  private:
    int fd_;
};

bool
writeAll(int fd, const std::uint8_t *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= std::size_t(n);
    }
    return true;
}

} // namespace

FileStorage::FileStorage(std::string dir) : dir_(std::move(dir))
{
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
        throw std::runtime_error("FileStorage: cannot create directory "
                                 + dir_);
    struct stat st{};
    if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        throw std::runtime_error("FileStorage: not a directory: " + dir_);
}

std::string
FileStorage::path(const std::string &name) const
{
    return dir_ + "/" + name;
}

bool
FileStorage::append(const std::string &name, const Bytes &data)
{
    Fd fd(::open(path(name).c_str(), O_WRONLY | O_CREAT | O_APPEND,
                 0644));
    if (!fd.ok())
        return false;
    return writeAll(fd.get(), data.data(), data.size());
}

bool
FileStorage::sync(const std::string &name)
{
    Fd fd(::open(path(name).c_str(), O_RDONLY));
    if (!fd.ok())
        return false;
    return ::fsync(fd.get()) == 0;
}

bool
FileStorage::read(const std::string &name, Bytes &out) const
{
    Fd fd(::open(path(name).c_str(), O_RDONLY));
    if (!fd.ok())
        return false;
    out.clear();
    struct stat st;
    if (::fstat(fd.get(), &st) == 0)
        out.reserve(std::size_t(st.st_size));
    std::uint8_t buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd.get(), buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            break;
        out.insert(out.end(), buf, buf + n);
    }
    return true;
}

bool
Storage::readRange(const std::string &name, std::uint64_t offset,
                   std::uint64_t len, Bytes &out) const
{
    Bytes all;
    if (!read(name, all))
        return false;
    const std::uint64_t from = std::min<std::uint64_t>(offset, all.size());
    const std::uint64_t to =
        from + std::min<std::uint64_t>(len, all.size() - from);
    out.assign(all.begin() + long(from), all.begin() + long(to));
    return true;
}

bool
FileStorage::readRange(const std::string &name, std::uint64_t offset,
                       std::uint64_t len, Bytes &out) const
{
    Fd fd(::open(path(name).c_str(), O_RDONLY));
    if (!fd.ok())
        return false;
    out.resize(len);
    std::uint64_t got = 0;
    while (got < len) {
        ssize_t n = ::pread(fd.get(), out.data() + got, len - got,
                            off_t(offset + got));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            break;
        got += std::uint64_t(n);
    }
    out.resize(got);
    return true;
}

bool
FileStorage::writeAtomic(const std::string &name, const Bytes &data)
{
    std::string tmp = path(name) + ".tmp";
    {
        Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
        if (!fd.ok())
            return false;
        if (!writeAll(fd.get(), data.data(), data.size())
            || ::fsync(fd.get()) != 0) {
            ::unlink(tmp.c_str());
            return false;
        }
    }
    if (::rename(tmp.c_str(), path(name).c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    // Durability of the rename itself needs the directory synced.
    Fd dirfd(::open(dir_.c_str(), O_RDONLY | O_DIRECTORY));
    if (dirfd.ok())
        ::fsync(dirfd.get());
    return true;
}

bool
FileStorage::truncate(const std::string &name, std::uint64_t size)
{
    return ::truncate(path(name).c_str(), off_t(size)) == 0;
}

bool
FileStorage::remove(const std::string &name)
{
    return ::unlink(path(name).c_str()) == 0;
}

std::uint64_t
FileStorage::size(const std::string &name) const
{
    struct stat st{};
    if (::stat(path(name).c_str(), &st) != 0)
        return 0;
    return std::uint64_t(st.st_size);
}

std::vector<std::string>
FileStorage::list() const
{
    std::vector<std::string> names;
    DIR *dir = ::opendir(dir_.c_str());
    if (!dir)
        return names;
    while (struct dirent *entry = ::readdir(dir)) {
        std::string name = entry->d_name;
        if (name == "." || name == "..")
            continue;
        struct stat st{};
        if (::stat(path(name).c_str(), &st) == 0 && S_ISREG(st.st_mode))
            names.push_back(std::move(name));
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace mtpu::persist
