#include "report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace fugubench
{

namespace
{

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

JsonObject &
JsonObject::raw(const std::string &key, std::string json)
{
    fields_.emplace_back(key, std::move(json));
    return *this;
}

JsonObject &
JsonObject::num(const std::string &key, double v)
{
    return raw(key, number(v));
}

JsonObject &
JsonObject::count(const std::string &key, std::uint64_t v)
{
    return raw(key, std::to_string(v));
}

JsonObject &
JsonObject::str(const std::string &key, const std::string &v)
{
    return raw(key, quote(v));
}

JsonObject &
JsonObject::flag(const std::string &key, bool v)
{
    return raw(key, v ? "true" : "false");
}

JsonObject &
JsonObject::obj(const std::string &key, const JsonObject &v)
{
    return raw(key, v.text());
}

JsonObject &
JsonObject::nums(const std::string &key, const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ',';
        s += number(v[i]);
    }
    return raw(key, s + "]");
}

JsonObject &
JsonObject::objs(const std::string &key, const std::vector<JsonObject> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ',';
        s += v[i].text();
    }
    return raw(key, s + "]");
}

std::string
JsonObject::text() const
{
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i)
            s += ", ";
        s += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return s + "}";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

double
referenceKernelNs()
{
    // Storage is allocated once and reused, so the kernel leaves the
    // heap as it found it (set-up times are sensitive to heap state).
    constexpr std::size_t kSlots = 1u << 14;
    static std::vector<std::uint64_t> table(kSlots);
    static std::vector<std::uint64_t> heap;
    heap.reserve(4096);

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    auto slot = [&](std::uint64_t key) {
        std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> 50;
        while (table[i] != 0 && table[i] != key)
            i = (i + 1) & (kSlots - 1);
        return i;
    };
    std::uint64_t sum = 0;
    std::fill(table.begin(), table.end(), 0);
    for (unsigned i = 0; i < 8000; ++i) {
        const std::uint64_t key = next() | 1;
        table[slot(key)] = key;
    }
    for (unsigned i = 0; i < 60000; ++i)
        sum += table[slot(next() | 1)] != 0;
    heap.clear();
    for (unsigned i = 0; i < 2048; ++i) {
        heap.push_back(next());
        std::push_heap(heap.begin(), heap.end());
    }
    for (unsigned i = 0; i < 30000; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        sum += heap.back();
        heap.back() = next() >> 1;
        std::push_heap(heap.begin(), heap.end());
    }
    volatile std::uint64_t keep = sum;
    (void)keep;
    return secondsSince(t0) * 1e9;
}

std::uint64_t
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            std::sscanf(line + 6, "%llu", &kb);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

StatTree::StatTree(const fugu::StatGroup &root)
{
    std::ostringstream os;
    root.print(os);
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string path;
        double value = 0;
        if (ls >> path >> value)
            values_[path] = value;
    }
}

template <typename F>
void
StatTree::forEach(const std::string &group, const std::string &leaf,
                  F &&fn) const
{
    const std::string tail = "." + leaf;
    for (const auto &[path, value] : values_) {
        if (path.size() <= tail.size() ||
            path.compare(path.size() - tail.size(), tail.size(),
                         tail) != 0)
            continue;
        const std::string parent =
            path.substr(0, path.size() - tail.size());
        const std::size_t dot = parent.rfind('.');
        const std::string name =
            dot == std::string::npos ? parent : parent.substr(dot + 1);
        // "cpu" selects cpu0, cpu1, ...; "crl" selects crl_n0_g1, ...
        if (name.compare(0, group.size(), group) != 0)
            continue;
        const char next =
            name.size() > group.size() ? name[group.size()] : '\0';
        if (next == '\0' || next == '_' ||
            std::isdigit(static_cast<unsigned char>(next)))
            fn(value);
    }
}

double
StatTree::sum(const std::string &group, const std::string &leaf) const
{
    double s = 0;
    forEach(group, leaf, [&](double v) { s += v; });
    return s;
}

double
StatTree::max(const std::string &group, const std::string &leaf) const
{
    double m = 0;
    forEach(group, leaf, [&](double v) { m = std::max(m, v); });
    return m;
}

double
interpolatedPercentile(const fugu::HistogramData &h, double p)
{
    if (!h.count)
        return 0;
    using H = fugu::HistogramData;
    const double rank = p / 100.0 * static_cast<double>(h.count);
    std::uint64_t cum = 0;
    for (unsigned b = 0; b < H::kBuckets; ++b) {
        if (!h.buckets[b])
            continue;
        if (static_cast<double>(cum + h.buckets[b]) >= rank) {
            const unsigned octave = b / H::kSub;
            const unsigned sub = b % H::kSub;
            double lo = std::ldexp(1.0, static_cast<int>(octave)) *
                        (1.0 + sub / static_cast<double>(H::kSub));
            double hi = H::bucketUpperEdge(b);
            lo = std::max(lo, h.min);
            hi = std::min(hi, h.max);
            const double frac =
                (rank - static_cast<double>(cum)) /
                static_cast<double>(h.buckets[b]);
            return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
        }
        cum += h.buckets[b];
    }
    return h.max;
}

} // namespace fugubench
