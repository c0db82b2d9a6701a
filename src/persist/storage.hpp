/**
 * @file
 * Pluggable byte-level storage for the durability subsystem
 * (DESIGN.md §12). The interface models exactly the primitives the
 * WAL and snapshot layers rely on — append, durable sync, atomic
 * whole-file publish, truncate — so a fault-injecting implementation
 * (fault::FaultyStorage) can deliver torn writes, truncated tails,
 * bit flips and failed fsyncs without either layer knowing.
 *
 * Durability contract: bytes passed to append() are guaranteed
 * crash-durable only after a successful sync() on the same file —
 * mirroring the POSIX write/fsync split that makes torn tails
 * possible in the first place. writeAtomic() publishes a complete
 * file or nothing (temp write + fsync + rename).
 *
 * The interface is header-only (pure virtuals, inline destructor) so
 * wrappers in earlier link layers (src/fault/) need no persist
 * symbols.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/hex.hpp"

namespace mtpu::persist {

class Storage
{
  public:
    virtual ~Storage() = default;

    /** Append @p data to @p name (creating it); false on I/O error.
     *  Appended bytes are durable only after a successful sync(). */
    virtual bool append(const std::string &name, const Bytes &data) = 0;

    /** Durably flush all appended data of @p name; false models a
     *  failed fsync (the unsynced suffix may be lost on crash). */
    virtual bool sync(const std::string &name) = 0;

    /** Read the whole file; false when missing or unreadable. */
    virtual bool read(const std::string &name, Bytes &out) const = 0;

    /**
     * Read up to @p len bytes of @p name starting at @p offset (fewer
     * at the end of the file, none past it); false when missing or
     * unreadable. The default reads the whole file and keeps the
     * range; FileStorage reads only the range, so a scan through it
     * holds one range in memory, not the file.
     */
    virtual bool readRange(const std::string &name, std::uint64_t offset,
                           std::uint64_t len, Bytes &out) const;

    /** Atomically publish a complete file: temp write + fsync +
     *  rename. Readers see the old content or the new, never a mix. */
    virtual bool writeAtomic(const std::string &name,
                             const Bytes &data) = 0;

    /** Truncate @p name to @p size bytes (WAL tail repair). */
    virtual bool truncate(const std::string &name,
                          std::uint64_t size) = 0;

    virtual bool remove(const std::string &name) = 0;

    /** Size in bytes, or 0 when missing. */
    virtual std::uint64_t size(const std::string &name) const = 0;

    /** Sorted names of all regular files in the store. */
    virtual std::vector<std::string> list() const = 0;
};

/**
 * POSIX directory-backed storage. All names are flat file names under
 * the root directory (created on construction). append/sync map to
 * write(2)/fsync(2); writeAtomic stages in a ".tmp" sibling, fsyncs,
 * then rename(2)s over the target.
 */
class FileStorage : public Storage
{
  public:
    /** @throws std::runtime_error when the directory cannot be
     *  created. */
    explicit FileStorage(std::string dir);

    bool append(const std::string &name, const Bytes &data) override;
    bool sync(const std::string &name) override;
    bool read(const std::string &name, Bytes &out) const override;
    bool readRange(const std::string &name, std::uint64_t offset,
                   std::uint64_t len, Bytes &out) const override;
    bool writeAtomic(const std::string &name,
                     const Bytes &data) override;
    bool truncate(const std::string &name, std::uint64_t size) override;
    bool remove(const std::string &name) override;
    std::uint64_t size(const std::string &name) const override;
    std::vector<std::string> list() const override;

    const std::string &dir() const { return dir_; }

  private:
    std::string path(const std::string &name) const;

    std::string dir_;
};

} // namespace mtpu::persist
