#include "sim/stats.hh"

#include <bit>
#include <cmath>
#include <iomanip>

#include "sim/log.hh"

namespace fugu
{

Stat::Stat(StatGroup *parent, const char *name, const char *desc)
    : name_(name), desc_(desc)
{
    fugu_assert(parent, "stat '", name_, "' needs a parent group");
    parent->registerStat(this);
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << value() << " # " << desc() << "\n";
}

void
Distribution::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::count " << count_ << " # " << desc()
       << "\n";
    os << prefix << name() << "::mean " << mean() << "\n";
    os << prefix << name() << "::min " << minValue() << "\n";
    os << prefix << name() << "::max " << maxValue() << "\n";
}

unsigned
HistogramData::bucketOf(double v)
{
    // NaN fails every ordered comparison, so `v < 1.0` would fall
    // through to the cast below — UB for NaN, and likewise for +inf
    // or anything >= 2^64. Negate the comparison so NaN lands in
    // bucket 0, and clamp oversized values into the last bucket.
    if (!(v >= 1.0))
        return 0;
    if (v >= 0x1p64)
        return kBuckets - 1;
    const auto x = static_cast<std::uint64_t>(v);
    const unsigned octave = static_cast<unsigned>(std::bit_width(x)) - 1;
    // Sub-bucket from the 2 bits below the leading one.
    const unsigned sub =
        octave >= 2
            ? static_cast<unsigned>((x >> (octave - 2)) & (kSub - 1))
            : static_cast<unsigned>((x << (2 - octave)) & (kSub - 1));
    const unsigned b = octave * kSub + sub;
    return b < kBuckets ? b : kBuckets - 1;
}

double
HistogramData::bucketUpperEdge(unsigned b)
{
    const unsigned octave = b / kSub;
    const unsigned sub = b % kSub;
    // Upper edge of [2^octave * (1 + sub/4), 2^octave * (1 + (sub+1)/4)).
    const double base = std::ldexp(1.0, static_cast<int>(octave));
    return base * (1.0 + (sub + 1) / static_cast<double>(kSub));
}

void
HistogramData::sample(double v)
{
    // Degenerate samples must not poison sum/min/max (a single NaN
    // would make every aggregate NaN forever): NaN and negatives
    // clamp to 0, +inf and anything beyond the histogram's range to
    // its top edge.
    if (std::isnan(v) || v < 0)
        v = 0;
    else if (v > 0x1p63)
        v = 0x1p63;
    ++count;
    sum += v;
    min = count == 1 ? v : std::min(min, v);
    max = count == 1 ? v : std::max(max, v);
    ++buckets[bucketOf(v)];
}

void
HistogramData::merge(const HistogramData &o)
{
    if (o.count == 0)
        return;
    if (count == 0) {
        min = o.min;
        max = o.max;
    } else {
        min = std::min(min, o.min);
        max = std::max(max, o.max);
    }
    count += o.count;
    sum += o.sum;
    for (unsigned b = 0; b < kBuckets; ++b)
        buckets[b] += o.buckets[b];
}

double
HistogramData::percentile(double p) const
{
    if (!count)
        return 0;
    const double target = p / 100.0 * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
        cum += buckets[b];
        if (static_cast<double>(cum) >= target && cum > 0)
            return std::min(bucketUpperEdge(b), max);
    }
    return max;
}

void
Histogram::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::count " << count() << " # " << desc()
       << "\n";
    os << prefix << name() << "::mean " << mean() << "\n";
    os << prefix << name() << "::p50 " << percentile(50) << "\n";
    os << prefix << name() << "::p95 " << percentile(95) << "\n";
    os << prefix << name() << "::p99 " << percentile(99) << "\n";
    os << prefix << name() << "::max " << maxValue() << "\n";
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

StatGroup::~StatGroup()
{
    // Children may outlive this group (teardown order is not guaranteed
    // to be leaf-first); orphan them so their destructors do not call
    // back into freed memory.
    for (StatGroup *g : children_)
        g->parent_ = nullptr;
    if (parent_)
        parent_->unregisterChild(this);
}

void
StatGroup::unregisterChild(StatGroup *g)
{
    for (auto it = children_.begin(); it != children_.end(); ++it) {
        if (*it == g) {
            children_.erase(it);
            return;
        }
    }
}

void
StatGroup::print(std::ostream &os, const std::string &prefix) const
{
    const std::string here =
        prefix.empty() ? name_ + "." : prefix + name_ + ".";
    for (const Stat *s : stats_)
        s->print(os, here);
    for (const StatGroup *g : children_)
        g->print(os, here);
}

void
StatGroup::resetAll()
{
    for (Stat *s : stats_)
        s->reset();
    for (StatGroup *g : children_)
        g->resetAll();
}

} // namespace fugu
