/**
 * @file
 * fugubench: runs one benchmark workload serially and prints its raw
 * measurements as one JSON object on stdout. perfbench/run.py builds
 * this program, turns the raw figures into the benchmark's metrics
 * and checks the simulated outputs against the recorded ones.
 *
 *   fugubench --workload NAME --seed N --seconds S --trace 0|1
 *   fugubench --selftest
 *
 * --trace 0 times set-up and the run phase with tracing off and
 * reports peak resident memory. --trace 1 runs the layer drivers,
 * then alternates untraced and traced passes (fugutrace on) and reads
 * each layer's counters from the machine's StatGroup tree.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "layers.hh"
#include "report.hh"
#include "workloads.hh"

using namespace fugubench;
using Clock = std::chrono::steady_clock;

namespace
{

/** Layer driver repetitions (median reported). */
constexpr unsigned kDriverReps = 5;

/**
 * Host timings are reported at a reference host speed: each sample is
 * multiplied by (kReferenceNs / reference kernel ns measured beside
 * it) raised to the workload's hostSensitivity. On a shared host the
 * speed of this kind of code drifts by up to 1.5x over minutes, which
 * no run of a few seconds can average out; the kernel (report.hh)
 * drifts with it but never with the simulator. kReferenceNs is the
 * kernel's typical time on a 4-vCPU Xeon VM, so scaled figures read as
 * host ns there.
 */
constexpr double kReferenceNs = 3.0e6;

/**
 * Set-up samples per pass: a workload with fewer trials builds and
 * tears down extra machines after each pass, so its set-up samples
 * spread over the whole run.
 */
constexpr unsigned kSetupsPerPass = 8;

/**
 * Network layer driver: destinations per source, and packets per
 * repetition (at least one round). All pairs at 4 and 8 nodes; at
 * 512 nodes 160 destinations give 81,920 channels, about the number
 * scale512_synth opens, where a full all-pairs round (261,632
 * channels) takes minutes with today's channel table.
 */
constexpr unsigned kNetFanout = 160;
constexpr std::uint64_t kNetPackets = 100000;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "fugubench: %s\nusage: fugubench --workload NAME "
                 "--seed N --seconds S --trace 0|1 | --selftest\n",
                 msg);
    std::exit(2);
}

JsonObject
outputJson(const TrialOutput &o, std::uint64_t seed, unsigned failed_runs)
{
    JsonObject j;
    j.count("seed", seed)
        .count("failed_runs", failed_runs)
        .flag("completed", o.completed)
        .num("violations", o.violations)
        .count("cycles", o.cycles)
        .count("sent", o.sent)
        .count("direct", o.direct)
        .count("buffered", o.buffered)
        .count("events", o.events)
        .num("msg_p99_cycles", interpolatedPercentile(o.latency, 99))
        .count("req_offered", o.reqOffered)
        .count("req_completed", o.reqCompleted)
        .count("req_buffered", o.reqBuffered);
    return j;
}

/** The simulated figures of a whole run (all trials together). */
JsonObject
simJson(const std::vector<TrialOutput> &outs)
{
    double cycles = 0, direct = 0, buffered = 0;
    fugu::HistogramData lat;
    for (const TrialOutput &o : outs) {
        cycles += static_cast<double>(o.cycles);
        direct += static_cast<double>(o.direct);
        buffered += static_cast<double>(o.buffered);
        lat.merge(o.latency);
    }
    const double handled = direct + buffered;
    JsonObject j;
    j.num("sim_cycles", cycles / static_cast<double>(outs.size()))
        .num("sim_fast_pct", handled ? 100.0 * direct / handled : 0)
        .num("sim_msg_p99_cycles", interpolatedPercentile(lat, 99));
    return j;
}

/** Ops: one per trial run and one per layer-driver repetition. */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> why;

    void
    add(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (why.size() < 16)
                why.push_back(what);
        }
    }
};

/**
 * Runs the workload's trials pass after pass. The first pass records
 * each trial's output; every later pass must reproduce it exactly.
 */
class Runner
{
  public:
    Runner(const WorkloadSpec &w, std::uint64_t seed)
        : w_(w), seed_(seed), first_(w.trials), failedRuns_(w.trials)
    {}

    /**
     * One pass over every trial. @p after sees each finished trial
     * (for layer readings). Returns host ns per delivered message of
     * each trial's run phase, scaled to the reference host speed.
     */
    template <typename After>
    std::vector<double>
    pass(bool traced, Ops &ops, After &&after)
    {
        std::vector<double> ns;
        double refBefore = referenceKernelNs();
        for (unsigned k = 0; k < w_.trials; ++k) {
            double setupS = 0, runNs = 0;
            {
                const std::uint64_t s = trialSeed(seed_, k);
                Trial t(w_, s, traced);
                setupS = t.setupSeconds();
                builds.push_back(t.buildSeconds());
                const auto t0 = Clock::now();
                t.run();
                const double runS = secondsSince(t0);
                const TrialOutput o = t.output();
                check(o, k, s, traced, ops);
                if (o.delivered())
                    runNs = runS * 1e9 /
                            static_cast<double>(o.delivered());
                after(t, o);
            }
            // The reference kernel runs between trials, once the
            // machine is gone; trial k is scaled by the mean of the
            // readings either side of it.
            const double refAfter = referenceKernelNs();
            const double scale = hostScale(refBefore, refAfter);
            setups.push_back(setupS * scale);
            if (runNs > 0) {
                ns.push_back(runNs * scale);
                rawNs.push_back(runNs);
            }
            refBefore = refAfter;
        }
        for (unsigned k = w_.trials; k < kSetupsPerPass; ++k) {
            const double setupS = setupOnly(k);
            const double refAfter = referenceKernelNs();
            setups.push_back(setupS * hostScale(refBefore, refAfter));
            refBefore = refAfter;
        }
        recorded_ = true;
        ++passes;
        return ns;
    }

    const std::vector<TrialOutput> &first() const { return first_; }

    /** Runs of trial k that failed a check so far. */
    unsigned failedRuns(unsigned k) const { return failedRuns_[k]; }

    std::vector<double> setups; ///< set-up seconds, host-scaled
    std::vector<double> builds; ///< Machine constructor seconds, raw
    std::vector<double> rawNs;  ///< run-phase ns per message, unscaled
    std::vector<double> refs;   ///< reference kernel ns per sample
    unsigned passes = 0;        ///< times each trial ran

  private:
    /** Check one trial's output; the first pass records it. */
    void
    check(const TrialOutput &o, unsigned k, std::uint64_t seed,
          bool traced, Ops &ops)
    {
        std::string what = w_.name + " seed " + std::to_string(seed);
        bool ok = o.completed && o.violations == 0 && o.delivered() > 0;
        if (!o.completed)
            what += ": did not complete";
        else if (o.violations)
            what += ": invariant violations";
        if (!recorded_) {
            first_[k] = o;
        } else if (!(o == first_[k])) {
            ok = false;
            what += traced ? ": traced run differs from untraced"
                           : ": replay differs from first run";
        }
        ops.add(ok, what);
        failedRuns_[k] += !ok;
    }

    /** Scale from host time now to host time at the reference speed. */
    double
    hostScale(double refBefore, double refAfter)
    {
        const double ref = 0.5 * (refBefore + refAfter);
        refs.push_back(ref);
        return std::pow(kReferenceNs / ref, w_.hostSensitivity);
    }

    /** An extra set-up (built and torn down, never run); seconds. */
    double
    setupOnly(unsigned k)
    {
        Trial t(w_, trialSeed(seed_, k % w_.trials), false);
        builds.push_back(t.buildSeconds());
        return t.setupSeconds();
    }

    const WorkloadSpec &w_;
    std::uint64_t seed_;
    std::vector<TrialOutput> first_;
    std::vector<unsigned> failedRuns_;
    bool recorded_ = false;
};

JsonObject
metaJson(const WorkloadSpec &w)
{
    const char *threads = std::getenv("FUGU_THREADS");
    JsonObject j;
    j.count("nproc", std::thread::hardware_concurrency())
        .str("fugu_threads", threads ? threads : "")
        .count("par_shards", w.machine.parShards)
        .count("trials_per_pass", w.trials)
        .count("nodes", w.machine.nodes)
        .str("build_type", FUGUBENCH_BUILD_TYPE)
        .str("ni_backend", fugu::core::toString(w.machine.ni.backend));
    return j;
}

/** Print the run's raw result: @p j plus the fields both modes share. */
void
printResult(JsonObject j, const Ops &ops, const Runner &r,
            const WorkloadSpec &w, const Args &a)
{
    std::vector<JsonObject> outs, why;
    for (unsigned k = 0; k < w.trials; ++k)
        outs.push_back(outputJson(r.first()[k], trialSeed(a.seed, k),
                                  r.failedRuns(k)));
    for (const std::string &f : ops.why)
        why.push_back(JsonObject().str("failure", f));
    j.str("workload", w.name)
        .count("seed", a.seed)
        .count("ops", ops.attempted)
        .count("ops_failed", ops.failed)
        .count("passes", r.passes)
        .objs("failures", why)
        .objs("outputs", outs)
        .obj("sim", simJson(r.first()))
        .obj("meta", metaJson(w));
    std::printf("%s\n", j.text().c_str());
}

int
runPlain(const WorkloadSpec &w, const Args &a)
{
    Ops ops;
    Runner r(w, a.seed);
    const auto t0 = Clock::now();
    auto none = [](Trial &, const TrialOutput &) {};

    // First pass in a fresh process: its peak RSS is the workload's.
    std::vector<double> ns = r.pass(false, ops, none);
    const std::uint64_t rssKb = peakRssKb();

    while (secondsSince(t0) < a.seconds) {
        const std::vector<double> more = r.pass(false, ops, none);
        ns.insert(ns.end(), more.begin(), more.end());
    }

    JsonObject j;
    j.num("measured_s", secondsSince(t0))
        .nums("host_ns_per_msg", ns)
        .nums("host_ns_per_msg_raw", r.rawNs)
        .nums("ref_ns", r.refs)
        .nums("setup_s", r.setups)
        .num("peak_rss_mb", static_cast<double>(rssKb) / 1024.0);
    printResult(j, ops, r, w, a);
    return 0;
}

/** Per-layer counters summed over every traced trial. */
struct LayerTotals
{
    std::map<std::string, double> sum;
    double vbufPeakPages = 0;
    double delivered = 0;
    double events = 0;
    double reqOffered = 0, reqCompleted = 0, reqBuffered = 0;

    void
    add(const StatTree &t, const TrialOutput &o)
    {
        static const std::pair<const char *, const char *> kKeys[] = {
            {"cpu", "irqs_taken"},
            {"cpu", "contexts_spawned"},
            {"ni", "atomicity_timeouts"},
            {"ni", "mismatch_irqs"},
            {"kernel", "buffer_inserts"},
            {"kernel", "mode_entries"},
            {"kernel", "upcalls"},
            {"kernel", "spurious_upcalls"},
            {"check", "checked_deliveries"},
            {"crl", "hits"},
            {"crl", "misses"},
            {"crl", "invs"},
        };
        for (const auto &[g, leaf] : kKeys)
            sum[std::string(g) + "." + leaf] += t.sum(g, leaf);
        vbufPeakPages =
            std::max(vbufPeakPages, t.max("vbuf", "peak_pages"));
        delivered += static_cast<double>(o.delivered());
        events += static_cast<double>(o.events);
        reqOffered += static_cast<double>(o.reqOffered);
        reqCompleted += static_cast<double>(o.reqCompleted);
        reqBuffered += static_cast<double>(o.reqBuffered);
    }
};

double
ratio(double a, double b)
{
    return b ? a / b : 0;
}

int
runTraced(const WorkloadSpec &w, const Args &a)
{
    Ops ops;
    Runner r(w, a.seed);
    LayerTotals tot;
    std::vector<double> checkNs;
    const auto t0 = Clock::now();

    auto untracedAfter = [&](Trial &t, const TrialOutput &) {
        // One full final sweep of the invariant checker, timed on a
        // finished untraced machine (a few calls; median).
        if (!checkNs.empty())
            return;
        for (unsigned i = 0; i < kDriverReps; ++i) {
            const auto c0 = Clock::now();
            t.machine().checker()->finalChecks();
            checkNs.push_back(secondsSince(c0) * 1e9);
        }
    };
    auto tracedAfter = [&](Trial &t, const TrialOutput &o) {
        if (r.passes == 1)
            tot.add(StatTree(t.machine().root), o);
    };

    // Layer drivers first, then traced/untraced passes fill the rest
    // of the run (at least one of each).
    auto driver = [&](const char *name, const LayerResult &lr) {
        for (unsigned i = 0; i < lr.reps; ++i)
            ops.add(i >= lr.failedReps,
                    std::string(name) + ": counted work != issued work");
        return lr;
    };
    const unsigned nodes = w.machine.nodes;
    const std::uint64_t channels =
        static_cast<std::uint64_t>(nodes) *
        std::min(nodes - 1, kNetFanout);
    const unsigned netRounds = static_cast<unsigned>(
        std::max<std::uint64_t>(1, kNetPackets / channels));
    const LayerResult sched =
        driver("sim.schedule_fire", driveScheduleFire(kDriverReps));
    const LayerResult netr = driver(
        "net.send_deliver",
        driveNetwork(nodes, kNetFanout, netRounds, kDriverReps));
    const LayerResult backend = driver(
        "core.backend_accept_extract",
        driveBackend(w.machine.ni, kDriverReps));
    const LayerResult fast =
        driver("glaze.fast_msg", driveMessages(false, kDriverReps));
    const LayerResult slow =
        driver("glaze.buffered_msg", driveMessages(true, kDriverReps));
    const LayerResult crlr = driver("crl.op", driveCrl(kDriverReps));

    std::vector<double> plainNs, tracedNs;
    do {
        const std::vector<double> u = r.pass(false, ops, untracedAfter);
        plainNs.insert(plainNs.end(), u.begin(), u.end());
        const std::vector<double> v = r.pass(true, ops, tracedAfter);
        tracedNs.insert(tracedNs.end(), v.begin(), v.end());
    } while (secondsSince(t0) < a.seconds);

    const double K = static_cast<double>(w.trials);
    const double plain = median(plainNs);
    const double traced = median(tracedNs);
    auto s = [&](const char *key) { return tot.sum[key]; };

    JsonObject m;
    auto put = [&m](const char *name, double v, const char *unit) {
        m.obj(name, JsonObject().num("value", v).str("unit", unit));
    };
    put("sim.schedule_fire_ns", sched.nsPerUnit, "ns");
    put("sim.events_per_msg", ratio(tot.events, tot.delivered), "count");
    put("exec.irqs_per_msg", ratio(s("cpu.irqs_taken"), tot.delivered),
        "count");
    put("exec.contexts_spawned", s("cpu.contexts_spawned") / K, "count");
    put("net.send_deliver_ns", netr.nsPerUnit, "ns");
    put("net.channels", netr.channels, "count");
    put("net.hol_blocks", netr.holBlocks, "count");
    put("core.backend_accept_extract_ns", backend.nsPerUnit, "ns");
    put("core.atomicity_timeouts", s("ni.atomicity_timeouts") / K,
        "count");
    put("core.mismatch_irqs", s("ni.mismatch_irqs") / K, "count");
    put("glaze.fast_msg_ns", fast.nsPerUnit, "ns");
    put("glaze.buffered_msg_ns", slow.nsPerUnit, "ns");
    put("glaze.buffer_inserts", s("kernel.buffer_inserts") / K, "count");
    put("glaze.mode_entries", s("kernel.mode_entries") / K, "count");
    put("glaze.spurious_upcall_ratio",
        ratio(s("kernel.spurious_upcalls"), s("kernel.upcalls")),
        "ratio");
    put("glaze.vbuf_peak_pages", tot.vbufPeakPages, "pages");
    put("glaze.check_final_ns", median(checkNs), "ns");
    put("glaze.check_deliveries", s("check.checked_deliveries") / K,
        "count");
    put("glaze.build_ms", median(r.builds) * 1e3, "ms");
    put("crl.op_ns", crlr.nsPerUnit, "ns");
    put("crl.hit_ratio",
        ratio(s("crl.hits"), s("crl.hits") + s("crl.misses")), "ratio");
    put("crl.invalidations", s("crl.invs") / K, "count");
    put("serve.completed_pct",
        100.0 * ratio(tot.reqCompleted, tot.reqOffered), "%");
    put("serve.buffered_req_pct",
        100.0 * ratio(tot.reqBuffered, tot.reqCompleted), "%");
    put("trace.overhead_pct", 100.0 * ratio(traced - plain, plain), "%");

    JsonObject j;
    j.num("measured_s", secondsSince(t0)).obj("layers", m);
    printResult(j, ops, r, w, a);
    return 0;
}

/**
 * Run every layer driver once at a small size and report the work
 * each issued and counted (the benchmark's self-tests assert they
 * agree).
 */
int
runSelftest()
{
    fugu::core::NetIfConfig damq;
    damq.backend = fugu::core::NiBackendKind::Damq;
    const std::pair<const char *, LayerResult> runs[] = {
        {"sim.schedule_fire", driveScheduleFire(1)},
        {"net.send_deliver", driveNetwork(8, kNetFanout, 16, 1)},
        {"core.backend_accept_extract.static_fifo",
         driveBackend(fugu::core::NetIfConfig{}, 1)},
        {"core.backend_accept_extract.damq", driveBackend(damq, 1)},
        {"glaze.fast_msg", driveMessages(false, 1)},
        {"glaze.buffered_msg", driveMessages(true, 1)},
        {"crl.op", driveCrl(1)},
    };
    JsonObject j;
    for (const auto &[name, lr] : runs)
        j.obj(name, JsonObject()
                        .count("units", lr.units)
                        .count("counted", lr.counted)
                        .count("reps", lr.reps)
                        .count("failed_reps", lr.failedReps)
                        .num("ns_per_unit", lr.nsPerUnit));
    std::printf("%s\n", j.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--selftest")
            return runSelftest();
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = std::atoi(v.c_str());
        else
            usage(("unknown option " + k).c_str());
    }
    const WorkloadSpec *w = findWorkload(a.workload);
    if (!w)
        usage(("unknown workload '" + a.workload + "'").c_str());
    return a.trace ? runTraced(*w, a) : runPlain(*w, a);
}
