/**
 * @file
 * Fault-injection tests: every fault class survives a transition
 * storm with zero invariant violations, the injector is off by
 * default and inert at zero rates, and a faulted run is bit-for-bit
 * deterministic — same seed, same stats, same trace bytes —
 * whatever FUGU_THREADS is set to. Plus the checker's own mutation
 * tests: a deliberately leaked frame is caught within one sweep
 * window and by the final check, and the dirty-node sweep reports
 * exactly what a sweep over every node does.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/adversary.hh"
#include "apps/common.hh"
#include "core/arch.hh"
#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "sim/fault.hh"

using namespace fugu;
using namespace fugu::glaze;
using harness::RunStats;

namespace
{

/** Enable one named fault class at a storm-level rate. */
void
applyClass(sim::FaultConfig &f, const std::string &cls)
{
    f.enabled = true;
    if (cls == "jitter") {
        f.delayJitterProb = 0.3;
    } else if (cls == "inqfull") {
        f.inputFullProb = 0.05;
    } else if (cls == "outqfull") {
        f.outputFullProb = 0.3;
    } else if (cls == "framedeny") {
        f.frameDenyProb = 0.2;
    } else if (cls == "divert") {
        f.divertStormProb = 0.5;
    } else if (cls == "timeout") {
        f.atomTimeoutProb = 0.5;
    } else if (cls == "pagefault") {
        f.pageFaultProb = 0.1;
    } else if (cls == "mixed") {
        f.delayJitterProb = 0.1;
        f.inputFullProb = 0.02;
        f.outputFullProb = 0.1;
        f.frameDenyProb = 0.05;
        f.divertStormProb = 0.15;
        f.atomTimeoutProb = 0.15;
        f.pageFaultProb = 0.03;
    } else {
        FAIL() << "unknown class " << cls;
    }
}

/** The stress.cfg shape in miniature: barrier + null, skewed gang. */
MachineConfig
stormConfig(const std::string &cls)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    applyClass(cfg.fault, cls);
    return cfg;
}

RunStats
runStorm(const MachineConfig &cfg, unsigned trials = 1,
         const std::string &trace_path = "")
{
    harness::Workloads wl;
    wl.barrier.barriers = 300;
    GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    return harness::runTrials(cfg, wl.factory("barrier"),
                              /*with_null=*/true, /*gang=*/true, g,
                              trials, 100000000000ull, trace_path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

class FaultStormTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FaultStormTest, SurvivesStormWithZeroViolations)
{
    const RunStats r = runStorm(stormConfig(GetParam()));
    ASSERT_TRUE(r.completed) << GetParam() << " wedged the machine";
    EXPECT_EQ(r.violations, 0.0) << GetParam();
    // The storm must actually exercise the mechanism it targets.
    EXPECT_GT(r.faultEvents, 0.0) << GetParam();
}

TEST_P(FaultStormTest, SameSeedIsBitIdentical)
{
    const MachineConfig cfg = stormConfig(GetParam());
    const RunStats a = runStorm(cfg);
    const RunStats b = runStorm(cfg);
    EXPECT_TRUE(a == b) << GetParam()
                        << ": faulted run is not reproducible";
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, FaultStormTest,
    ::testing::Values("jitter", "inqfull", "outqfull", "framedeny",
                      "divert", "timeout", "pagefault", "mixed"),
    [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Atomicity-timeout revocation vs squatters (glaze/kernel.cc)
// ---------------------------------------------------------------------

/**
 * A tenant that arms the user-settable timer-force UAC bit and never
 * opens (or closes) an atomic section, while doing real barrier
 * traffic. The atomicity timer then expires repeatedly with
 * interrupt-disable clear; each expiry must revoke into plain
 * buffered mode, not raise the atomicity gate — there is no atomic
 * section, so no endAtomic trap will ever come to clear it. Pre-fix,
 * onAtomicityTimeout committed from_atomic unconditionally and the
 * first expiry wedged the process's drain forever.
 */
glaze::AppBody
makeTimerForceSquatter(unsigned nnodes, unsigned barriers)
{
    return [=](glaze::Process &p) -> exec::CoTask<void> {
        auto &e = apps::env(p, nnodes);
        p.port().ni().beginAtom(core::kUacTimerForce);
        for (unsigned i = 0; i < barriers; ++i) {
            co_await p.compute(400);
            co_await e.barrier.wait();
        }
    };
}

/**
 * A tenant that re-arms physical atomicity back to back, holding each
 * section past the timeout preset so revocation keeps firing, with a
 * timeout storm layered on top to land stale interrupts in the
 * modeTransition window.
 */
glaze::AppBody
makeAtomicSquatter(unsigned nnodes, unsigned barriers)
{
    return [=](glaze::Process &p) -> exec::CoTask<void> {
        auto &e = apps::env(p, nnodes);
        for (unsigned i = 0; i < barriers; ++i) {
            co_await p.port().beginAtomic();
            co_await p.compute(3000); // > the timeout preset below
            co_await p.port().endAtomic();
            co_await e.barrier.wait();
        }
    };
}

TEST(AtomicityTest, TimerForceSquatterCannotWedgeTheDrain)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    // Every dispose restarts the timer with a fresh preset, so the
    // preset must be shorter than the squatter's compute leg for the
    // forced timer to actually expire between barrier rounds.
    cfg.ni.atomicityTimeout = 250;
    const RunStats r = harness::runJob(
        cfg,
        [](unsigned n, std::uint64_t) {
            return makeTimerForceSquatter(n, 80);
        },
        /*with_null=*/false, /*gang=*/false, {},
        /*max_cycles=*/200000000ull);
    ASSERT_TRUE(r.completed)
        << "timer-force squatter wedged its own drain";
    EXPECT_EQ(r.violations, 0.0);
    // The squat must actually fire the timer (else the test is inert).
    EXPECT_GT(r.atomicityTimeouts, 0.0);
}

TEST(AtomicityTest, TimeoutStormAgainstAtomicitySquatter)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    cfg.ni.atomicityTimeout = 1000;
    cfg.fault.enabled = true;
    cfg.fault.atomTimeoutProb = 0.5;
    cfg.fault.divertStormProb = 0.3;
    const auto factory = [](unsigned n, std::uint64_t) {
        return makeAtomicSquatter(n, 60);
    };
    const RunStats r = harness::runJob(cfg, factory,
                                       /*with_null=*/true,
                                       /*gang=*/true, {},
                                       /*max_cycles=*/400000000ull);
    ASSERT_TRUE(r.completed) << "squatter + storm wedged the machine";
    EXPECT_EQ(r.violations, 0.0);
    EXPECT_GT(r.atomicityTimeouts, 0.0);
    const RunStats replay = harness::runJob(cfg, factory, true, true,
                                            {}, 400000000ull);
    EXPECT_TRUE(r == replay);
}

TEST(FaultTest, DisabledByDefaultInjectsNothing)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    const RunStats r = runStorm(cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.faultEvents, 0.0);
    EXPECT_EQ(r.violations, 0.0);
}

TEST(FaultTest, EnabledWithZeroRatesMatchesDisabled)
{
    // fault.enabled with every probability at 0 must not perturb the
    // simulation: zero-rate classes draw no randomness and inject
    // nothing, so the timeline is the baseline's.
    MachineConfig base;
    base.nodes = 4;
    base.seed = 11;
    MachineConfig armed = base;
    armed.fault.enabled = true;
    const RunStats a = runStorm(base);
    const RunStats b = runStorm(armed);
    EXPECT_EQ(b.faultEvents, 0.0);
    EXPECT_TRUE(a == b);
}

TEST(FaultTest, ExplicitFaultSeedDecouplesFromMachineSeed)
{
    // Same machine seed, different fault seeds: the injected streams
    // must differ (else fault.seed is dead weight).
    MachineConfig a = stormConfig("mixed");
    a.fault.seed = 1;
    MachineConfig b = a;
    b.fault.seed = 2;
    const RunStats ra = runStorm(a);
    const RunStats rb = runStorm(b);
    EXPECT_EQ(ra.violations, 0.0);
    EXPECT_EQ(rb.violations, 0.0);
    EXPECT_FALSE(ra == rb);
}

TEST(FaultTest, StormIndependentOfWorkerThreads)
{
    const char *saved = std::getenv("FUGU_THREADS");
    const std::string saved_val = saved ? saved : "";

    const MachineConfig cfg = stormConfig("mixed");
    const std::string p1 = testing::TempDir() + "fault_threads1.trace";
    const std::string p4 = testing::TempDir() + "fault_threads4.trace";
    ::setenv("FUGU_THREADS", "1", 1);
    const RunStats r1 = runStorm(cfg, /*trials=*/2, p1);
    ::setenv("FUGU_THREADS", "4", 1);
    const RunStats r4 = runStorm(cfg, /*trials=*/2, p4);
    if (saved)
        ::setenv("FUGU_THREADS", saved_val.c_str(), 1);
    else
        ::unsetenv("FUGU_THREADS");

    ASSERT_TRUE(r1.completed);
    EXPECT_TRUE(r1 == r4) << "faulted stats depend on FUGU_THREADS";
    EXPECT_EQ(readFile(p1), readFile(p4))
        << "faulted trace bytes depend on FUGU_THREADS";
    std::remove(p1.c_str());
    std::remove((p1 + ".json").c_str());
    std::remove(p4.c_str());
    std::remove((p4 + ".json").c_str());
}

// ---------------------------------------------------------------------
// Conservation sweeps: mutation and full-vs-dirty agreement
// ---------------------------------------------------------------------

/** Step a serial machine one cycle at a time until @p done. */
template <typename Pred>
void
stepUntil(Machine &m, const Job *job, Pred done)
{
    while (!done() && !job->done())
        m.run(m.now() + 1);
}

TEST(ConservationLeakTest, SweepCatchesLeakWithinOneWindow)
{
    // A synth run on the fast path: after start-up no node allocates
    // or frees a frame, so a leaked frame is the only change the
    // leaking node's books ever see. The dirty mark set by the leak
    // itself must bring that node into the next periodic sweep.
    MachineConfig cfg;
    cfg.nodes = 16;
    cfg.seed = 7;
    harness::Workloads wl;
    wl.synth.groups = 8;
    Machine m(cfg);
    Job *job = m.addJob("synth", wl.factory("synth")(cfg.nodes, cfg.seed));
    m.installJob(job);
    const InvariantChecker::Stats &st = m.checker()->stats;
    const std::uint64_t window = cfg.check.sweepEvery;
    ASSERT_GT(window, 0u);

    stepUntil(m, job, [&] { return st.checkedDeliveries.value() >= 500; });
    ASSERT_FALSE(job->done()) << "workload too short to leak mid-run";
    EXPECT_EQ(st.conservationViolations.value(), 0.0);

    constexpr NodeId kLeakNode = 5;
    FramePool &frames = m.node(kLeakNode).frames;
    ASSERT_TRUE(frames.tryAllocate()); // no owner: a leak
    const double allocs_at_leak = frames.stats.allocations.value();
    const double checked_at_leak = st.checkedDeliveries.value();

    stepUntil(m, job, [&] {
        return st.checkedDeliveries.value() - checked_at_leak >=
               static_cast<double>(window);
    });
    ASSERT_FALSE(job->done()) << "run ended inside the sweep window";
    EXPECT_GT(st.conservationViolations.value(), 0.0)
        << "leak not caught within one sweep_every window";

    ASSERT_TRUE(m.runUntilDone(job));
    // The premise: nothing else touched the leaking node's pool.
    EXPECT_EQ(frames.stats.allocations.value(), allocs_at_leak);
    EXPECT_GT(m.checker()->totalViolations(), 0.0);
}

TEST(ConservationLeakTest, FinalChecksCatchLeakWithoutPeriodicSweeps)
{
    MachineConfig cfg;
    cfg.nodes = 16;
    cfg.seed = 7;
    cfg.check.sweepEvery = 0;
    harness::Workloads wl;
    wl.synth.groups = 8;
    Machine m(cfg);
    Job *job = m.addJob("synth", wl.factory("synth")(cfg.nodes, cfg.seed));
    m.installJob(job);
    const InvariantChecker::Stats &st = m.checker()->stats;
    stepUntil(m, job, [&] { return st.checkedDeliveries.value() >= 500; });
    ASSERT_FALSE(job->done());
    ASSERT_TRUE(m.node(5).frames.tryAllocate());
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(st.conservationViolations.value(), 1.0);
}

/** Everything the conservation sweep reports, for one run. */
struct SweepReport
{
    bool completed = false;
    double checked = 0;
    double conservation = 0;
    double isolation = 0;
    double maxFrameShare = 0;
    double total = 0;
    std::vector<InvariantChecker::GidIsolation> gids; ///< per job
};

/**
 * Gang-schedule @p jobs (the first is the measured one) and report
 * the checker's sweep results, sweeping every node each time when
 * @p sweep_all. A non-zero @p leak_at leaks one frame on node 1 at
 * that cycle.
 */
SweepReport
runSweeps(const MachineConfig &cfg, const std::vector<AppBody> &jobs,
          bool sweep_all, Cycle leak_at)
{
    Machine m(cfg);
    m.checker()->setSweepAllNodes(sweep_all);
    std::vector<Job *> handles;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        handles.push_back(m.addJob("job" + std::to_string(i), jobs[i]));
    if (leak_at)
        m.queueFor(1).scheduleFn(
            [&m] { (void)m.node(1).frames.tryAllocate(); }, leak_at,
            "leak");
    GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    m.startGang(g);

    SweepReport r;
    r.completed = m.runUntilDone(handles[0], 400000000ull);
    const InvariantChecker &c = *m.checker();
    r.checked = c.stats.checkedDeliveries.value();
    r.conservation = c.stats.conservationViolations.value();
    r.isolation = c.stats.isolationViolations.value();
    r.maxFrameShare = c.stats.maxFrameShare.value();
    r.total = c.totalViolations();
    for (const Job *j : handles)
        r.gids.push_back(c.isolation(j->gid()));
    return r;
}

void
expectSameReport(const SweepReport &dirty, const SweepReport &full)
{
    EXPECT_EQ(dirty.completed, full.completed);
    EXPECT_EQ(dirty.checked, full.checked);
    EXPECT_EQ(dirty.conservation, full.conservation);
    EXPECT_EQ(dirty.isolation, full.isolation);
    EXPECT_EQ(dirty.maxFrameShare, full.maxFrameShare);
    EXPECT_EQ(dirty.total, full.total);
    ASSERT_EQ(dirty.gids.size(), full.gids.size());
    for (std::size_t i = 0; i < full.gids.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(dirty.gids[i].framePeak, full.gids[i].framePeak);
        EXPECT_EQ(dirty.gids[i].frameShareMax, full.gids[i].frameShareMax);
        EXPECT_EQ(dirty.gids[i].serviceGapMax, full.gids[i].serviceGapMax);
        EXPECT_EQ(dirty.gids[i].direct, full.gids[i].direct);
        EXPECT_EQ(dirty.gids[i].buffered, full.gids[i].buffered);
    }
}

TEST_P(FaultStormTest, DirtySweepAgreesWithFullSweep)
{
    // The storm shape above, with and without a leaked frame, serial
    // and sharded: the dirty-node sweep must count every violation
    // and watermark exactly as sweeping every node does.
    harness::Workloads wl;
    wl.barrier.barriers = 300;
    for (unsigned shards : {1u, 2u}) {
        for (Cycle leak_at : {Cycle{0}, Cycle{60000}}) {
            SCOPED_TRACE("shards " + std::to_string(shards) + " leak@" +
                         std::to_string(leak_at));
            MachineConfig cfg = stormConfig(GetParam());
            cfg.parShards = shards;
            const std::vector<AppBody> jobs = {
                wl.factory("barrier")(cfg.nodes, cfg.seed),
                apps::makeNullApp()};
            const SweepReport dirty = runSweeps(cfg, jobs, false, leak_at);
            const SweepReport full = runSweeps(cfg, jobs, true, leak_at);
            ASSERT_TRUE(full.completed);
            expectSameReport(dirty, full);
            if (!leak_at) {
                EXPECT_EQ(full.total, 0.0);
            }
        }
    }
}

TEST(ConservationAgreementTest, FrameShareJudgeAgreesWithFullSweep)
{
    // test_isolation's frame-share judge: an abuser squatting vbuf
    // pages next to a barrier victim, with a share limit every held
    // frame exceeds. Each sweep re-reports every standing excess, so
    // the count is a direct measure of which nodes each sweep saw.
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    cfg.check.frameShareLimit = 1e-6;
    harness::Workloads wl;
    wl.barrier.barriers = 400;
    apps::AbuserAppConfig abuser;
    abuser.messages = 150;
    abuser.warmup = 30000;
    for (unsigned shards : {1u, 2u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        cfg.parShards = shards;
        const std::vector<AppBody> jobs = {
            wl.factory("barrier")(cfg.nodes, cfg.seed),
            apps::makeAbuserApp(cfg.nodes, abuser)};
        const SweepReport dirty = runSweeps(cfg, jobs, false, 0);
        const SweepReport full = runSweeps(cfg, jobs, true, 0);
        ASSERT_TRUE(full.completed);
        EXPECT_GT(full.isolation, 0.0);
        EXPECT_GT(full.gids[1].framePeak, 0u);
        expectSameReport(dirty, full);
    }
}

} // namespace
