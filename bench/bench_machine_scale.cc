/**
 * @file
 * Parallel-engine scale sweep: host events/sec of whole-machine
 * simulation across a nodes x par_shards grid, on the synthetic
 * request workload (Section 5.2's shape, sized per node count).
 *
 * For every node count the shards=1 cell is the serial oracle; each
 * shards=S cell reports its speedup against that oracle. Memory is
 * reported two ways: the process-wide peak (VmHWM, monotone across
 * cells) and the resident-set growth from just before the machine is
 * built to the end of its run, divided by the node count — the
 * per-node footprint the node-state diet targets. Wall-clock speedup
 * above 1.0 needs real cores: set FUGU_THREADS and run on a
 * multi-core host; a single-core container still verifies the
 * engine's overhead (speedup ~1/overhead). Each row also counts the
 * events that completed in place (spends and same-cycle Cpu hops,
 * DESIGN §13); they are part of `events`, not extra work.
 *
 * Writes BENCH_machine.json with --json; the CI perf gate diffs its
 * events/sec against the committed baseline.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness/benchmain.hh"

using namespace fugu;
using namespace fugu::harness;

namespace
{

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : csv + ",") {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    return out;
}

std::vector<unsigned>
splitCsvU(const std::string &csv)
{
    std::vector<unsigned> out;
    for (const std::string &s : splitCsv(csv))
        out.push_back(static_cast<unsigned>(std::stoul(s)));
    return out;
}

/** Current resident set ("VmRSS") or peak ("VmHWM"), in KiB. */
std::uint64_t
procStatusKb(const char *key)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, key, std::strlen(key)) == 0) {
            std::sscanf(line + std::strlen(key), ": %llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            break;
        }
    }
    std::fclose(f);
    return kb;
}

struct Cell
{
    unsigned nodes, shards;
    double secs;
    std::uint64_t events;
    std::uint64_t spendsInPlace; // of events: completed in place
    std::uint64_t hopsInPlace;
    std::uint64_t inPlaceRefused; // in-place checks that got an event
    double eps;
    double speedup;
    std::uint64_t peakRssKb;
    double rssPerNodeKb;
};

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = std::getenv("FUGU_QUICK") != nullptr;
    std::string appsCsv = "synth";
    std::string nodesCsv = "64,256,1024";
    std::string shardsCsv = quick ? "1,4" : "1,2,4,8";
    unsigned groups = 2;  // synchronization groups per node
    unsigned requests = quick ? 20 : 50; // requests per group
    unsigned reps = 3; // best-of runs per cell (noise floor)

    BenchSpec spec;
    spec.name = "machine";
    spec.defaults = [](BenchContext &ctx) {
        // Engine throughput, not checker throughput: the rows
        // measure the engine alone. The checker's sweeps are cheap
        // at any size now, but its hooks serialize shard threads on
        // one mutex. test_parallel covers correctness with it on.
        ctx.machine.check.enabled = false;
    };
    spec.params = [&](sim::Binder &b) {
        auto s = b.push("scale");
        b.item("apps", appsCsv,
               "workloads to sweep (csv of workload names)");
        b.item("nodes", nodesCsv, "node counts to sweep (csv)");
        b.item("shards", shardsCsv,
               "machine.par_shards values to sweep (csv)");
        b.item("groups", groups, "synth groups per node");
        b.item("requests", requests, "synth requests per group");
        b.item("reps", reps,
               "runs per cell; the fastest is reported");
    };
    spec.body = [&](BenchContext &ctx) {
        ctx.report.meta("workload", "synth");
        ctx.report.meta("groups_per_node", groups);
        ctx.report.meta("requests_per_group", requests);
        ctx.report.meta("units", "host events/sec");

        Workloads wl = ctx.workloads;
        wl.synth.groups = groups;
        wl.synth.n = requests;

        std::printf("Machine-simulation scale sweep (synth: "
                    "%u groups/node x %u requests)\n",
                    groups, requests);
        std::printf("%-6s  %6s  %6s  %8s  %12s  %10s  %10s  %10s  %14s  "
                    "%8s  %10s\n",
                    "app", "nodes", "shards", "secs", "events",
                    "spends-ip", "hops-ip", "ip-refused", "events/sec",
                    "speedup", "rss/node");

        // (app, nodes) -> the shards=1 oracle's events/sec.
        std::map<std::pair<std::string, unsigned>, double> serialEps;
        for (const std::string &app : splitCsv(appsCsv)) {
            for (unsigned nodes : splitCsvU(nodesCsv)) {
                for (unsigned shards : splitCsvU(shardsCsv)) {
                    if (shards > nodes)
                        continue;
                    glaze::MachineConfig cfg = ctx.machine;
                    cfg.nodes = nodes;
                    cfg.parShards = shards;

                    // Best of reps runs: host noise (especially with
                    // more threads than cores) only ever slows a run
                    // down, so the fastest rep is the least-noisy
                    // estimate and what the CI gate compares.
                    const std::uint64_t rss0 = procStatusKb("VmRSS");
                    RunStats r;
                    double secs = 0;
                    std::uint64_t rss1 = rss0;
                    for (unsigned rep = 0; rep < std::max(reps, 1u);
                         ++rep) {
                        const auto t0 =
                            std::chrono::steady_clock::now();
                        const RunStats rr =
                            runJob(cfg, wl.factory(app),
                                   /*with_null=*/false,
                                   /*gang=*/false, ctx.gang,
                                   ctx.maxCycles);
                        const double s =
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
                        if (rep == 0) {
                            rss1 = procStatusKb("VmRSS");
                            r = rr;
                            secs = s;
                        } else if (s < secs) {
                            r = rr;
                            secs = s;
                        }
                        if (!rr.completed) {
                            std::fprintf(
                                stderr,
                                "FAIL: %s at %u nodes x %u shards "
                                "did not complete\n",
                                app.c_str(), nodes, shards);
                            return 1;
                        }
                    }

                    Cell c;
                    c.nodes = nodes;
                    c.shards = shards;
                    c.secs = secs;
                    c.events = r.events;
                    c.spendsInPlace = r.spendsInPlace;
                    c.hopsInPlace = r.hopsInPlace;
                    c.inPlaceRefused = r.inPlaceRefused;
                    c.eps = r.events / secs;
                    if (shards == 1)
                        serialEps[{app, nodes}] = c.eps;
                    c.speedup = serialEps.count({app, nodes})
                                    ? c.eps / serialEps[{app, nodes}]
                                    : 0.0;
                    c.peakRssKb = procStatusKb("VmHWM");
                    c.rssPerNodeKb =
                        rss1 > rss0
                            ? static_cast<double>(rss1 - rss0) / nodes
                            : 0.0;

                    std::printf("%-6s  %6u  %6u  %8.3f  %12llu  %10llu  "
                                "%10llu  %10llu  %14.0f  %7.2fx  %8.1fK\n",
                                app.c_str(), c.nodes, c.shards, c.secs,
                                static_cast<unsigned long long>(
                                    c.events),
                                static_cast<unsigned long long>(
                                    c.spendsInPlace),
                                static_cast<unsigned long long>(
                                    c.hopsInPlace),
                                static_cast<unsigned long long>(
                                    c.inPlaceRefused),
                                c.eps, c.speedup, c.rssPerNodeKb);
                    ctx.report.row(
                        {{"app", app},
                         {"nodes", c.nodes},
                         {"shards", c.shards},
                         {"secs", c.secs},
                         {"events", c.events},
                         {"spends_in_place", c.spendsInPlace},
                         {"hops_in_place", c.hopsInPlace},
                         {"in_place_refused", c.inPlaceRefused},
                         {"events_per_sec", c.eps},
                         {"speedup_vs_serial", c.speedup},
                         {"peak_rss_kb", c.peakRssKb},
                         {"rss_per_node_kb", c.rssPerNodeKb}});
                }
            }
        }
        return 0;
    };
    return benchMain(spec, argc, argv);
}
