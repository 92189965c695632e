/**
 * @file
 * Layer drivers: benchmark-owned code that times calls into one
 * module's public functions at a time and counts the work it timed.
 * Each driver repeats a fixed amount of work and reports the median
 * host ns per unit. A repetition fails when the work it counted does
 * not match the work it issued (e.g. delivered != sent).
 */

#ifndef FUGUBENCH_LAYERS_HH
#define FUGUBENCH_LAYERS_HH

#include <cstdint>
#include <string>

#include "core/netif.hh"

namespace fugubench
{

/** Outcome of one layer driver. */
struct LayerResult
{
    double nsPerUnit = 0;     ///< median host ns per unit of work
    std::uint64_t units = 0;  ///< units issued per repetition
    std::uint64_t counted = 0; ///< units the layer reported done (last rep)
    unsigned reps = 0;        ///< repetitions run
    unsigned failedReps = 0;  ///< repetitions whose count was wrong

    /// @name Driver-specific counters (last repetition)
    /// @{
    double channels = 0;  ///< net: distinct (src,dst) channels used
    double holBlocks = 0; ///< net: arrivals stalled by a full sink
    /// @}
};

/** sim: one scheduleFn + fire of a pooled lambda event. */
LayerResult driveScheduleFire(unsigned reps);

/**
 * net: every node of a @p nodes-node mesh sends @p rounds packets to
 * each of its @p fanout successors (node+1 .. node+fanout, mod nodes;
 * all pairs once fanout >= nodes-1) into sinks with a small input
 * queue drained at a fixed service time. Each (src,dst) pair is one
 * network channel. Unit: one packet sent and delivered.
 */
LayerResult driveNetwork(unsigned nodes, unsigned fanout, unsigned rounds,
                         unsigned reps);

/**
 * core: fill the configured NI backend from several (src,gid) flows,
 * then extract it oldest-first. Unit: one accept + extract pair.
 */
LayerResult driveBackend(const fugu::core::NetIfConfig &cfg,
                         unsigned reps);

/**
 * glaze: a two-node message stream through the UDM / Process API.
 * With @p buffered set, the machine runs the always-buffered
 * ablation so every message takes the kernel's buffered path; unset,
 * every message takes the fast path. Unit: one delivered message.
 */
LayerResult driveMessages(bool buffered, unsigned reps);

/**
 * crl: every node of a 4-node machine runs read and write sections
 * on shared regions; a contended write counter checks the result.
 * Unit: one section (start + end).
 */
LayerResult driveCrl(unsigned reps);

} // namespace fugubench

#endif // FUGUBENCH_LAYERS_HH
