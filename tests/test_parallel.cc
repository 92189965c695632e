/**
 * @file
 * Parallel (bound-weave) engine tests: machine.par_shards=1 stays the
 * bit-exact serial oracle, a fixed shard count is deterministic
 * whatever FUGU_THREADS is, the parallel engine agrees with the
 * serial one on everything the application semantically produced,
 * fault storms survive sharding with zero invariant violations, and
 * the lookahead derivation/clamping behaves as documented. Every
 * sharded test runs at explicit FUGU_THREADS values, never the
 * host's default.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "sim/shard.hh"

using namespace fugu;
using namespace fugu::glaze;
using harness::RunStats;

namespace
{

MachineConfig
meshConfig(unsigned nodes, unsigned shards)
{
    MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.parShards = shards;
    cfg.seed = 7;
    return cfg;
}

/** One synth-app run; the workload every acceptance number uses. */
RunStats
runSynth(const MachineConfig &cfg)
{
    harness::Workloads wl;
    wl.synth.groups = cfg.nodes / 2;
    return harness::runJob(cfg, wl.factory("synth"),
                           /*with_null=*/false, /*gang=*/false, {});
}

/** The test_faults storm shape, but on a shardable machine. */
RunStats
runStorm(const MachineConfig &cfg)
{
    harness::Workloads wl;
    wl.barrier.barriers = 200;
    GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    return harness::runJob(cfg, wl.factory("barrier"),
                           /*with_null=*/true, /*gang=*/true, g);
}

/** Scoped FUGU_THREADS override (the pool reads it per machine). */
class ThreadsEnv
{
  public:
    explicit ThreadsEnv(const char *v)
    {
        const char *old = std::getenv("FUGU_THREADS");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        setenv("FUGU_THREADS", v, 1);
    }
    ~ThreadsEnv()
    {
        if (had_)
            setenv("FUGU_THREADS", old_.c_str(), 1);
        else
            unsetenv("FUGU_THREADS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

TEST(ShardMapTest, PartitionIsContiguousAndComplete)
{
    for (unsigned nodes : {4u, 17u, 1024u, 4096u}) {
        for (unsigned shards : {1u, 2u, 3u, 8u}) {
            if (shards > nodes)
                continue;
            const sim::ShardMap map{nodes, shards};
            unsigned prev = 0;
            for (NodeId n = 0; n < nodes; ++n) {
                const unsigned s = map.of(n);
                ASSERT_LT(s, shards);
                ASSERT_GE(s, prev) << "shards not contiguous";
                if (s != prev) {
                    EXPECT_EQ(map.firstNode(s), n);
                }
                prev = s;
            }
            EXPECT_EQ(map.of(nodes - 1), shards - 1)
                << "last shard empty";
            EXPECT_EQ(map.firstNode(0), 0u);
        }
    }
}

TEST(ParallelEngineTest, SerialConfigStaysSerial)
{
    Machine m(meshConfig(8, 1));
    EXPECT_EQ(m.shardCount(), 1u);
}

TEST(ParallelEngineTest, ShardCountClampsToNodes)
{
    Machine m(meshConfig(4, 64));
    EXPECT_EQ(m.shardCount(), 4u);
}

TEST(ParallelEngineTest, LookaheadDerivedFromMinLatency)
{
    // Derivation and clamping agree: an absurdly large explicit
    // lookahead clamps to exactly the derived minimum, and an
    // explicit 1 is honoured (shorter phases are always safe).
    MachineConfig cfg = meshConfig(8, 4);
    const Cycle derived = Machine(cfg).lookahead();
    EXPECT_GE(derived, 1u);

    cfg.lookahead = 1000000000;
    EXPECT_EQ(Machine(cfg).lookahead(), derived);

    cfg.lookahead = 1;
    EXPECT_EQ(Machine(cfg).lookahead(), 1u);
}

TEST(ParallelEngineTest, OneShardReplayIsBitExact)
{
    // The serial oracle: par_shards=1 must be reproducible down to
    // the engine's event count, not just the semantic stats.
    const MachineConfig cfg = meshConfig(16, 1);
    const RunStats a = runSynth(cfg);
    const RunStats b = runSynth(cfg);
    ASSERT_TRUE(a.completed);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.events, b.events);
}

/**
 * Worker-thread counts every sharded test runs at, set explicitly so
 * a result never depends on the host's core count: one thread runs
 * the shards in turn, four run them concurrently.
 */
constexpr const char *kThreadCounts[] = {"1", "4"};

TEST(ParallelEngineTest, FixedShardCountIsDeterministic)
{
    const MachineConfig cfg = meshConfig(16, 4);
    for (const char *threads : kThreadCounts) {
        SCOPED_TRACE(std::string("FUGU_THREADS=") + threads);
        ThreadsEnv env(threads);
        const RunStats a = runSynth(cfg);
        const RunStats b = runSynth(cfg);
        ASSERT_TRUE(a.completed);
        EXPECT_TRUE(a == b);
        EXPECT_EQ(a.events, b.events);
    }
}

TEST(ParallelEngineTest, DeterministicAcrossThreadCounts)
{
    // The contract: results depend on machine.par_shards, never on
    // how many worker threads happen to execute the shards.
    const MachineConfig cfg = meshConfig(16, 4);
    RunStats serial, threaded;
    {
        ThreadsEnv env("1");
        serial = runSynth(cfg);
    }
    {
        ThreadsEnv env("4");
        threaded = runSynth(cfg);
    }
    ASSERT_TRUE(serial.completed);
    EXPECT_TRUE(serial == threaded);
    EXPECT_EQ(serial.events, threaded.events);
}

TEST(ParallelEngineTest, AgreesWithSerialOracleSemantics)
{
    // Cross-shard arrivals interleave differently than the serial
    // global order, so cycle-exact timing may drift — but everything
    // the application semantically produced must agree: completion,
    // message count, total deliveries, zero violations.
    const RunStats serial = runSynth(meshConfig(16, 1));
    ASSERT_TRUE(serial.completed);
    EXPECT_EQ(serial.violations, 0.0);
    for (const char *threads : kThreadCounts) {
        SCOPED_TRACE(std::string("FUGU_THREADS=") + threads);
        ThreadsEnv env(threads);
        const RunStats par = runSynth(meshConfig(16, 4));
        ASSERT_TRUE(par.completed);
        EXPECT_EQ(serial.sent, par.sent);
        EXPECT_EQ(serial.direct + serial.buffered,
                  par.direct + par.buffered);
        EXPECT_EQ(par.violations, 0.0);
    }
}

TEST(ParallelEngineTest, InPlaceSpendsInShardLanesAgreeWithSerialOracle)
{
    // Shard lanes complete spends in place up to each phase horizon;
    // two shards must still agree with the serial oracle on what the
    // application produced, and be deterministic across threads.
    auto run = [](unsigned shards, std::uint64_t *in_place,
                  std::uint64_t *events, Cycle *end) {
        const MachineConfig cfg = meshConfig(16, shards);
        harness::Workloads wl;
        wl.synth.groups = cfg.nodes / 2;
        Machine m(cfg);
        Job *job = m.addJob("app", wl.factory("synth")(cfg.nodes, cfg.seed));
        m.installJob(job);
        EXPECT_TRUE(m.runUntilDone(job));
        EXPECT_EQ(m.checker()->totalViolations(), 0.0);
        *in_place = m.spendsInPlace();
        *events = m.eventsProcessed();
        *end = m.now();
        double delivered = 0, sent = 0;
        for (Process *p : job->procs) {
            sent += p->stats.sent.value();
            delivered += p->stats.directDelivered.value() +
                         p->stats.bufferedDelivered.value();
        }
        return std::pair{sent, delivered};
    };
    std::uint64_t in_place = 0, events = 0;
    Cycle end = 0;
    const auto serial = run(1, &in_place, &events, &end);
    EXPECT_GT(in_place, 0u);
    std::uint64_t ref_events = 0;
    Cycle ref_end = 0;
    for (const char *threads : kThreadCounts) {
        SCOPED_TRACE(std::string("FUGU_THREADS=") + threads);
        ThreadsEnv env(threads);
        const auto par = run(2, &in_place, &events, &end);
        EXPECT_EQ(par, serial);
        EXPECT_GT(in_place, 0u);
        if (ref_events == 0) {
            ref_events = events;
            ref_end = end;
        }
        EXPECT_EQ(events, ref_events);
        EXPECT_EQ(end, ref_end);
    }
}

TEST(ParallelEngineTest, GangScheduledStormSurvivesSharding)
{
    // The stress.cfg shape — skewed gang, barrier vs null — on four
    // shards with a mixed fault storm: must complete with zero
    // invariant violations and actually fire faults.
    MachineConfig cfg = meshConfig(8, 4);
    cfg.seed = 11;
    cfg.fault.enabled = true;
    cfg.fault.delayJitterProb = 0.1;
    cfg.fault.inputFullProb = 0.02;
    cfg.fault.outputFullProb = 0.1;
    cfg.fault.frameDenyProb = 0.05;
    cfg.fault.divertStormProb = 0.15;
    cfg.fault.atomTimeoutProb = 0.15;
    cfg.fault.pageFaultProb = 0.03;
    for (const char *threads : kThreadCounts) {
        SCOPED_TRACE(std::string("FUGU_THREADS=") + threads);
        ThreadsEnv env(threads);
        const RunStats r = runStorm(cfg);
        ASSERT_TRUE(r.completed) << "storm wedged the sharded machine";
        EXPECT_EQ(r.violations, 0.0);
        EXPECT_GT(r.faultEvents, 0.0);

        const RunStats replay = runStorm(cfg);
        EXPECT_TRUE(r == replay) << "sharded storm is not reproducible";
        EXPECT_EQ(r.events, replay.events);
    }
}

TEST(ParallelEngineTest, TracedParallelRunMergesDeterministically)
{
    MachineConfig cfg = meshConfig(16, 4);
    cfg.trace.enabled = true;
    for (const char *threads : kThreadCounts) {
        SCOPED_TRACE(std::string("FUGU_THREADS=") + threads);
        ThreadsEnv env(threads);
        const RunStats a = runSynth(cfg);
        const RunStats b = runSynth(cfg);
        ASSERT_TRUE(a.completed);
        EXPECT_TRUE(a == b);
    }
}

TEST(ParallelEngineTest, FourKNodeMeshConstructsAndRuns)
{
    // The satellite-5 bounds audit in executable form: a 4096-node
    // machine (the largest mesh the scenarios exercise) constructs,
    // shards, and completes a small all-nodes workload with the
    // invariant checker's periodic sweeps on.
    const MachineConfig cfg = meshConfig(4096, 8);
    harness::Workloads wl;
    wl.barrier.barriers = 2;
    for (const char *threads : kThreadCounts) {
        SCOPED_TRACE(std::string("FUGU_THREADS=") + threads);
        ThreadsEnv env(threads);
        const RunStats r =
            harness::runJob(cfg, wl.factory("barrier"),
                            /*with_null=*/false, /*gang=*/false, {});
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(r.violations, 0.0);
        EXPECT_GT(r.sent, 0u);
    }
}

} // namespace
