/**
 * @file
 * Benchmark-side tracing: spans recorded around every call the
 * benchmark makes into a module's public API, kept in memory and
 * reduced to per-layer self times when the run ends. A layer's self
 * time is its span minus the part of that interval its child spans
 * cover; whatever no span covers inside the timed window is "other".
 *
 * The recorder is single-threaded by contract: every call it wraps is
 * issued from the benchmark's main thread (library-internal pools run
 * inside those calls, not around them).
 */

#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "persist/storage.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One recorded span; times are seconds since the recorder's epoch. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
};

/** A time interval [from, to] in recorder seconds. */
struct Window
{
    double from = 0.0;
    double to = 0.0;
};

class SpanRecorder
{
  public:
    /** A disabled recorder records nothing and costs one branch. */
    explicit SpanRecorder(bool enabled);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }

    /** Seconds since the recorder was created. */
    double now() const;

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    int open(const char *name);
    void close(int index);

    bool enabled_;
    Clock::time_point epoch_;
    std::thread::id owner_;
    std::vector<Span> spans_;
    std::vector<int> stack_; ///< indices of the open spans
};

/**
 * Self time per span name, restricted to the windows: each span's
 * clipped duration minus the union of its children's clipped
 * intervals, summed by name.
 */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans,
          const std::vector<Window> &windows);

/** Window time that no root span covers. */
double unattributed(const std::vector<Span> &spans,
                    const std::vector<Window> &windows);

/**
 * Timing decorator over a persist::Storage backend: forwards every
 * call unchanged and records persist.append / persist.sync /
 * persist.snapshot (atomic whole-file publish) / persist.read spans.
 */
class TimingStorage : public mtpu::persist::Storage
{
  public:
    TimingStorage(std::unique_ptr<mtpu::persist::Storage> inner,
                  SpanRecorder &rec);

    bool append(const std::string &name, const mtpu::Bytes &data) override;
    bool sync(const std::string &name) override;
    bool read(const std::string &name, mtpu::Bytes &out) const override;
    bool writeAtomic(const std::string &name,
                     const mtpu::Bytes &data) override;
    bool truncate(const std::string &name, std::uint64_t size) override;
    bool remove(const std::string &name) override;
    std::uint64_t size(const std::string &name) const override;
    std::vector<std::string> list() const override;

  private:
    std::unique_ptr<mtpu::persist::Storage> inner_;
    SpanRecorder &rec_;
};

} // namespace perfbench
