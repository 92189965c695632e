/**
 * @file
 * Small helpers shared by fugubench: an ordered JSON
 * object writer, order statistics, host memory readings, the
 * flattened StatGroup tree, and an interpolated histogram quantile.
 */

#ifndef FUGUBENCH_REPORT_HH
#define FUGUBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace fugubench
{

/** An ordered JSON object built field by field. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v);
    JsonObject &count(const std::string &key, std::uint64_t v);
    JsonObject &str(const std::string &key, const std::string &v);
    JsonObject &flag(const std::string &key, bool v);
    JsonObject &obj(const std::string &key, const JsonObject &v);
    JsonObject &nums(const std::string &key, const std::vector<double> &v);
    JsonObject &objs(const std::string &key,
                     const std::vector<JsonObject> &v);

    /** The object as one line of JSON. */
    std::string text() const;

  private:
    JsonObject &raw(const std::string &key, std::string json);

    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Seconds elapsed since @p t0 on the steady clock. */
double secondsSince(std::chrono::steady_clock::time_point t0);

/**
 * Host ns of a fixed, benchmark-owned reference computation: hash
 * table inserts and lookups plus binary-heap churn, about 2 ms. It uses
 * no simulator code, so it measures how fast the host runs this kind
 * of work right now, and nothing a change to the simulator can move.
 */
double referenceKernelNs();

/** This process's peak resident set (VmHWM), in KiB. */
std::uint64_t peakRssKb();

/**
 * A StatGroup tree flattened through its stable text dump: one entry
 * per printed line, "machine.cpu3.irqs_taken" -> value.
 */
class StatTree
{
  public:
    explicit StatTree(const fugu::StatGroup &root);

    /**
     * Sum of every stat named @p leaf whose enclosing group is
     * @p group, optionally followed by a node number or a "_" suffix
     * (e.g. group "cpu", leaf "irqs_taken" sums the counter over
     * every node's cpu<N> group).
     */
    double sum(const std::string &group, const std::string &leaf) const;

    /** Maximum of the same selection (0 when nothing matches). */
    double max(const std::string &group, const std::string &leaf) const;

  private:
    template <typename F>
    void forEach(const std::string &group, const std::string &leaf,
                 F &&fn) const;

    std::map<std::string, double> values_;
};

/**
 * Quantile @p p (in [0,100]) of a log-bucketed histogram, linearly
 * interpolated inside the bucket holding the rank. The histogram's
 * own percentile() returns the bucket's upper edge, which moves in
 * ~19% steps; interpolation keeps the figure continuous in the data.
 */
double interpolatedPercentile(const fugu::HistogramData &h, double p);

} // namespace fugubench

#endif // FUGUBENCH_REPORT_HH
