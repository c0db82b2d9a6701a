#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

using Intervals = std::vector<std::pair<double, double>>;

/** Sort and merge overlapping intervals. */
Intervals
unite(Intervals v)
{
    std::sort(v.begin(), v.end());
    Intervals out;
    for (const auto &iv : v) {
        if (iv.second <= iv.first)
            continue;
        if (!out.empty() && iv.first <= out.back().second)
            out.back().second = std::max(out.back().second, iv.second);
        else
            out.push_back(iv);
    }
    return out;
}

/** Intersection of two sorted, disjoint interval lists. */
Intervals
intersect(const Intervals &a, const Intervals &b)
{
    Intervals out;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        double lo = std::max(a[i].first, b[j].first);
        double hi = std::min(a[i].second, b[j].second);
        if (lo < hi)
            out.emplace_back(lo, hi);
        if (a[i].second < b[j].second)
            ++i;
        else
            ++j;
    }
    return out;
}

double
length(const Intervals &v)
{
    double sum = 0.0;
    for (const auto &iv : v)
        sum += iv.second - iv.first;
    return sum;
}

Intervals
toIntervals(const std::vector<Window> &windows)
{
    Intervals v;
    for (const Window &w : windows)
        v.emplace_back(w.from, w.to);
    return unite(std::move(v));
}

} // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()),
      owner_(std::this_thread::get_id())
{}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int
SpanRecorder::open(const char *name)
{
    if (!enabled_)
        return -1;
    if (std::this_thread::get_id() != owner_) {
        std::fprintf(stderr, "perfbench: span %s opened off the "
                             "recording thread\n", name);
        std::abort();
    }
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now();
    spans_.push_back(s);
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
}

void
SpanRecorder::close(int index)
{
    if (index < 0)
        return;
    spans_[std::size_t(index)].end = now();
    stack_.pop_back();
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name)
    : rec_(rec), index_(rec.open(name))
{}

SpanRecorder::Scope::~Scope()
{
    rec_.close(index_);
}

std::map<std::string, double>
selfTimes(const std::vector<Span> &spans,
          const std::vector<Window> &windows)
{
    const Intervals win = toIntervals(windows);
    std::vector<Intervals> children(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[std::size_t(s.parent)].emplace_back(s.start, s.end);

    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Intervals own = intersect({{spans[i].start, spans[i].end}}, win);
        double self = length(own)
                    - length(intersect(own, unite(children[i])));
        out[spans[i].name] += self;
    }
    return out;
}

double
unattributed(const std::vector<Span> &spans,
             const std::vector<Window> &windows)
{
    const Intervals win = toIntervals(windows);
    Intervals roots;
    for (const Span &s : spans)
        if (s.parent < 0)
            roots.emplace_back(s.start, s.end);
    return length(win) - length(intersect(unite(std::move(roots)), win));
}

TimingStorage::TimingStorage(std::unique_ptr<mtpu::persist::Storage> inner,
                             SpanRecorder &rec)
    : inner_(std::move(inner)), rec_(rec)
{}

bool
TimingStorage::append(const std::string &name, const mtpu::Bytes &data)
{
    SpanRecorder::Scope span(rec_, "persist.append");
    return inner_->append(name, data);
}

bool
TimingStorage::sync(const std::string &name)
{
    SpanRecorder::Scope span(rec_, "persist.sync");
    return inner_->sync(name);
}

bool
TimingStorage::read(const std::string &name, mtpu::Bytes &out) const
{
    SpanRecorder::Scope span(rec_, "persist.read");
    return inner_->read(name, out);
}

bool
TimingStorage::writeAtomic(const std::string &name, const mtpu::Bytes &data)
{
    SpanRecorder::Scope span(rec_, "persist.snapshot");
    return inner_->writeAtomic(name, data);
}

bool
TimingStorage::truncate(const std::string &name, std::uint64_t size)
{
    return inner_->truncate(name, size);
}

bool
TimingStorage::remove(const std::string &name)
{
    return inner_->remove(name);
}

std::uint64_t
TimingStorage::size(const std::string &name) const
{
    return inner_->size(name);
}

std::vector<std::string>
TimingStorage::list() const
{
    return inner_->list();
}

} // namespace perfbench
