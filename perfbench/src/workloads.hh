/**
 * @file
 * The benchmark's three workloads and the code that sets one trial
 * of a workload up, runs it serially and reads back what it
 * simulated. Every machine runs with machine.par_shards = 1 (the
 * serial engine) and one simulation at a time.
 */

#ifndef FUGUBENCH_WORKLOADS_HH
#define FUGUBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "glaze/machine.hh"
#include "serve/serve.hh"
#include "sim/arrival.hh"

namespace fugubench
{

/** A workload: one machine shape plus the job(s) it runs. */
struct WorkloadSpec
{
    enum class App
    {
        Synth,   ///< Section 5.2 synthetic request/reply
        Serving, ///< open-loop KV serving on CRL
    };

    std::string name;
    App app = App::Synth;

    /**
     * Trials per benchmark run: trial k of seed s runs with machine
     * seed trialSeed(s, k). Several small trials per run average out
     * the seed-to-seed spread of the simulated figures.
     */
    unsigned trials = 1;

    /** Gang-schedule the job against the "null" application. */
    bool multiprogram = false;

    fugu::glaze::MachineConfig machine;
    fugu::glaze::GangConfig gang;
    fugu::apps::SynthAppConfig synth;
    fugu::serve::ServeConfig serve;
    fugu::sim::ArrivalConfig arrival;

    fugu::Cycle maxCycles = 20000000000ull;

    /**
     * How strongly this workload's host time follows the reference
     * kernel's (the exponent b in time ~ kernel_time^b), measured as
     * the log-log slope of trial time against kernel time while the
     * host's speed drifted: about 1.6 for fig10_buffered, 1.5 for
     * serving_kv and 1 for scale512_synth. Host timings are scaled by
     * (reference / kernel)^b.
     */
    double hostSensitivity = 1.0;
};

/** The workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Machine seed of trial @p k of benchmark seed @p seed. */
std::uint64_t trialSeed(std::uint64_t seed, unsigned k);

/**
 * What one trial simulated. Every field is a deterministic function
 * of (workload, trial seed); operator== is the replay check.
 */
struct TrialOutput
{
    bool completed = false;
    double violations = 0;     ///< invariant-checker total
    fugu::Cycle cycles = 0;    ///< job start to completion
    std::uint64_t sent = 0;    ///< user messages injected by the job
    std::uint64_t direct = 0;  ///< delivered on the fast path
    std::uint64_t buffered = 0; ///< delivered on the buffered path
    std::uint64_t events = 0;  ///< simulator events processed

    /** Inject-to-extract latency of every delivered message. */
    fugu::HistogramData latency;

    /// @name Serving only (measured window, all nodes)
    /// @{
    std::uint64_t reqOffered = 0;
    std::uint64_t reqCompleted = 0;
    std::uint64_t reqBuffered = 0;
    /// @}

    std::uint64_t delivered() const { return direct + buffered; }

    bool operator==(const TrialOutput &o) const = default;
};

/**
 * One trial's machine, built and ready to run. Construction is the
 * set-up phase the benchmark times: build the machine, add the
 * job(s) and install them (or start the gang scheduler).
 */
class Trial
{
  public:
    Trial(const WorkloadSpec &w, std::uint64_t seed, bool traced);

    Trial(const Trial &) = delete;
    Trial &operator=(const Trial &) = delete;

    /** Run the job to completion; false if it did not complete. */
    bool run();

    /** What the run simulated (call after run()). */
    TrialOutput output() const;

    fugu::glaze::Machine &machine() { return *machine_; }

    /** Host seconds spent in the Machine constructor alone. */
    double buildSeconds() const { return buildS_; }

    /** Host seconds of the whole set-up (build + jobs + install). */
    double setupSeconds() const { return setupS_; }

  private:
    const WorkloadSpec &w_;
    std::unique_ptr<fugu::glaze::Machine> machine_;
    fugu::glaze::Job *job_ = nullptr;
    std::shared_ptr<std::vector<fugu::serve::ServeResult>> slots_;
    bool completed_ = false;
    double buildS_ = 0;
    double setupS_ = 0;
};

} // namespace fugubench

#endif // FUGUBENCH_WORKLOADS_HH
