#include "glaze/machine.hh"

#include <cmath>

#include "sim/config.hh"
#include "sim/log.hh"

namespace fugu::glaze
{

void
bindConfig(sim::Binder &b, MachineConfig &c)
{
    {
        auto s = b.push("machine");
        b.item("nodes", c.nodes, "number of nodes (processors)");
        b.enumItem("atomicity", c.atomicity,
                   {{"kernel", core::AtomicityMode::Kernel},
                    {"hard", core::AtomicityMode::Hard},
                    {"soft", core::AtomicityMode::Soft}},
                   "receive-path atomicity implementation (Table 4)");
        b.item("frames_per_node", c.framesPerNode,
               "physical page frames per node", "pages");
        b.item("always_buffered", c.alwaysBuffered,
               "ablation: deliver every message via the buffered path");
        b.item("pinned_buffer_pages", c.pinnedBufferPages,
               "ablation: frames pinned per process at creation",
               "pages");
        b.item("par_shards", c.parShards,
               "parallel engine shards (1 = serial oracle)");
        b.item("lookahead", c.lookahead,
               "bound-phase lookahead (0 = derive from min network "
               "latency)",
               "cycles");
        b.item("seed", c.seed, "base RNG seed");
    }
    {
        auto s = b.push("engine");
        b.item("batch_fire", c.batchFire,
               "drain all same-cycle events per calendar-bucket touch");
    }
    {
        auto s = b.push("net");
        net::bindConfig(b, c.net);
    }
    {
        auto s = b.push("osnet");
        net::bindConfig(b, c.osNet);
    }
    {
        auto s = b.push("ni");
        core::bindConfig(b, c.ni);
    }
    {
        auto s = b.push("costs");
        core::bindConfig(b, c.costs);
    }
    {
        auto s = b.push("trace");
        trace::bindConfig(b, c.trace);
    }
    {
        auto s = b.push("fault");
        sim::bindConfig(b, c.fault);
    }
    {
        auto s = b.push("check");
        bindConfig(b, c.check);
    }
}

void
bindConfig(sim::Binder &b, GangConfig &c)
{
    auto s = b.push("gang");
    b.item("quantum", c.quantum, "gang-scheduler timeslice", "cycles");
    b.item("skew", c.skew,
           "schedule-quality knob: per-node quantum offset drawn from "
           "[0, skew*quantum]",
           "fraction");
}

Machine::Node::Node(Machine &m, NodeId id, EventQueue &eq)
    : cpu(eq, id, &m.root),
      ni(cpu, m.net, id, m.cfg.ni, &m.root),
      frames(m.cfg.framesPerNode, &m.root, id),
      osnic(cpu, m.osnet, id),
      kernel(m, id, cpu, ni, frames)
{
}

namespace
{

/**
 * Cheapest possible cross-node delivery on a network: the smallest
 * message (header + one payload word) travelling exactly one hop.
 * This bounds how far ahead of the global floor a shard may run
 * without being able to miss a cross-shard arrival.
 */
Cycle
minCrossNodeLatency(const net::NetworkConfig &c)
{
    return c.latencyBase + c.perHop + c.perWord * 2;
}

} // namespace

MachineConfig
Machine::fix(MachineConfig cfg)
{
    fugu_assert(cfg.nodes >= 1, "machine needs at least one node");
    // NodeId is 16 bits (and kNoNode is reserved): a larger machine
    // would silently alias network channels and wrap per-node loops.
    fugu_assert(cfg.nodes <= kNoNode, "machine of ", cfg.nodes,
                " nodes exceeds the NodeId address space");
    // Size both meshes to cover the node count: prefer a near-square
    // user mesh and a linear OS network.
    auto fit = [&](net::NetworkConfig &n) {
        if (n.meshX * n.meshY >= cfg.nodes && n.meshX > 0 && n.meshY > 0)
            return;
        unsigned x = 1;
        while (x * x < cfg.nodes)
            ++x;
        n.meshX = x;
        n.meshY = (cfg.nodes + x - 1) / x;
    };
    fit(cfg.net);
    fit(cfg.osNet);
    return cfg;
}

Machine::Machine(MachineConfig cfg_in)
    : cfg(fix(std::move(cfg_in))),
      shards_{cfg.nodes,
              std::min(std::max(cfg.parShards, 1u), cfg.nodes)},
      root("machine"), rng(cfg.seed),
      net(eq, cfg.net, "net_user", &root),
      osnet(eq, cfg.osNet, "net_os", &root)
{
    const unsigned S = shards_.shards;
    shardEq_.push_back(&eq);
    for (unsigned s = 1; s < S; ++s) {
        extraEqs_.push_back(std::make_unique<EventQueue>());
        shardEq_.push_back(extraEqs_.back().get());
    }
    phaseEvents_.assign(S, 0);
    for (EventQueue *q : shardEq_)
        q->setBatchFire(cfg.batchFire);

    // The bound phase may run a shard up to lookahead-1 cycles past
    // the global floor, so the lookahead must never exceed the fastest
    // possible cross-node delivery (else a shard could blow past an
    // arrival staged by a peer). Derive that bound; explicit values
    // only ever shorten phases.
    const Cycle min_lat =
        std::max<Cycle>(1, std::min(minCrossNodeLatency(cfg.net),
                                    minCrossNodeLatency(cfg.osNet)));
    lookahead_ = cfg.lookahead == 0
                     ? min_lat
                     : std::clamp<Cycle>(cfg.lookahead, 1, min_lat);

    if (S > 1) {
        net.setParallel(&shards_, shardEq_);
        osnet.setParallel(&shards_, shardEq_);
        // Nested machines (the harness fans trials out over worker
        // threads) stay serial-fallback: shard phases share nothing
        // mutable, so one thread or many is bit-identical.
        const unsigned want = std::min(S, sim::defaultWorkerThreads());
        if (!sim::onWorkerThread() && want > 1)
            pool_ = std::make_unique<sim::WorkerPool>(want - 1);
    }

    if (cfg.trace.enabled)
        for (unsigned s = 0; s < S; ++s)
            tracers_.push_back(std::make_unique<trace::Recorder>(
                *shardEq_[s], cfg.trace));
    net.setTracer(tracerAt(0), /*os_net=*/false);
    osnet.setTracer(tracerAt(0), /*os_net=*/true);
    for (unsigned s = 1; s < S; ++s) {
        net.setLaneTracer(s, tracerAt(s));
        osnet.setLaneTracer(s, tracerAt(s));
    }

    for (NodeId n = 0; n < cfg.nodes; ++n) {
        Node &node = nodes.emplace_back(*this, n, queueFor(n));
        node.cpu.setTracer(tracerFor(n));
        node.ni.setTracer(tracerFor(n));
        node.osnic.setTracer(tracerFor(n));
    }
    pinnedFrames_.assign(cfg.nodes, 0);

    // The checker watches the user network only: OS-net messages are
    // kernel protocol with no application delivery semantics.
    checker_ = std::make_unique<InvariantChecker>(*this, cfg.check);
    checker_->setParallel(S > 1);
    net.setWatcher(checker_.get());
    for (auto &node : nodes)
        node.ni.setWatcher(checker_.get());

    if (cfg.fault.enabled) {
        // One injector per shard so draws stay inside each shard's
        // single-threaded event loop. Shard 0 reuses the serial
        // machine's exact seeds (the S=1 build is the bit-exact
        // oracle); the others salt both seed paths per shard.
        for (unsigned s = 0; s < S; ++s) {
            sim::FaultConfig fc = cfg.fault;
            std::uint64_t mseed = cfg.seed;
            if (s > 0) {
                const std::uint64_t salt = 0x9e3779b97f4a7c15ull * s;
                mseed ^= salt;
                if (fc.seed)
                    fc.seed += salt;
            }
            faults_.push_back(std::make_unique<sim::FaultInjector>(
                *shardEq_[s], fc, mseed, cfg.nodes,
                s == 0 ? &root : nullptr));
            faults_.back()->setInputRetry(
                [this](NodeId n) { net.onSinkSpaceFreed(n); });
        }
        // Like the checker, faults hit the user network/NI/frames
        // only — the OS network must stay guaranteed deadlock-free.
        net.setFault(faultAt(0));
        for (unsigned s = 1; s < S; ++s)
            net.setLaneFault(s, faultAt(s));
        for (NodeId n = 0; n < cfg.nodes; ++n) {
            nodes[n].ni.setFault(faultFor(n));
            nodes[n].frames.setFault(faultFor(n));
        }
        for (NodeId n = 0; n < cfg.nodes; ++n)
            scheduleFaultTick(n, 1);
    }

    for (auto &node : nodes)
        node.kernel.init();
}

Machine::~Machine() = default;

namespace
{

exec::Task
jobMain(Process *p, Job *job, AppBody body)
{
    // Handler registrations in the body's synchronous prologue are
    // visible to the drain the moment this slice yields — so a drain
    // deferred because we had not started yet can be spawned now: at
    // handler priority it first runs at our first suspension point,
    // after the prologue.
    p->mainStarted = true;
    p->kernel()->ensureDrain(p);
    co_await body(*p);
    job->nodeDone(p->node());
}

} // namespace

Job *
Machine::addJob(std::string name, AppBody body)
{
    const Gid gid = nextGid_++;
    auto job = std::make_unique<Job>(gid, std::move(name), cfg.nodes);
    for (NodeId n = 0; n < cfg.nodes; ++n) {
        auto proc = std::make_unique<Process>(
            nodes[n].cpu, nodes[n].ni, cfg.costs, nodes[n].frames,
            &root, n, gid, job.get());
        nodes[n].kernel.addProcess(proc.get());
        for (unsigned f = 0; f < cfg.pinnedBufferPages; ++f) {
            if (nodes[n].frames.tryAllocate())
                ++pinnedFrames_[n];
            else
                warn("node ", n, ": could not pin buffer page ", f);
        }
        proc->setTracer(tracerFor(n));
        proc->setChecker(checker_.get());
        checker_->addProcess(*proc);
        job->procs.push_back(proc.get());
        proc->threads().spawn(job->name() + "-main", rt::kPrioNormal,
                              jobMain(proc.get(), job.get(), body));
        processes.push_back(std::move(proc));
    }
    jobs.push_back(std::move(job));
    return jobs.back().get();
}

void
Machine::installJob(Job *job)
{
    job->startCycle = now();
    for (NodeId n = 0; n < cfg.nodes; ++n)
        nodes[n].kernel.installProcess(job->procs[n]);
}

void
Machine::startGang(GangConfig gcfg)
{
    fugu_assert(!gangRunning_, "gang scheduler started twice");
    fugu_assert(!jobs.empty(), "no jobs to schedule");
    fugu_assert(gcfg.skew >= 0.0 && gcfg.skew <= 1.0, "bad skew");
    gang_ = gcfg;
    gangRunning_ = true;

    gangOffset_.resize(cfg.nodes);
    const Cycle window =
        static_cast<Cycle>(gcfg.skew * static_cast<double>(gcfg.quantum));
    for (NodeId n = 0; n < cfg.nodes; ++n)
        gangOffset_[n] = window ? rng.uniform(0, window) : 0;

    for (auto &j : jobs)
        j->startCycle = now();

    // Install the first job everywhere, then rotate each quantum.
    for (NodeId n = 0; n < cfg.nodes; ++n) {
        nodes[n].kernel.installProcess(jobs[0]->procs[n]);
        scheduleBoundary(n, 1);
    }
}

Process *
Machine::pickGangTarget(NodeId node, std::uint64_t k)
{
    const std::size_t njobs = jobs.size();
    for (std::size_t i = 0; i < njobs; ++i) {
        Job *j = jobs[(k + i) % njobs].get();
        Process *p = j->procs[node];
        if (!p->suspended)
            return p;
    }
    return nullptr; // every job suspended
}

void
Machine::scheduleFaultTick(NodeId node, std::uint64_t k)
{
    // The draw order within a tick is fixed, and every class draws on
    // every tick (rates of zero skip the RNG entirely), so a given
    // (seed, config) pair replays bit-identically.
    queueFor(node).scheduleFn(
        [this, node, k] {
            sim::FaultInjector *f = faultFor(node);
            if (f->drawOutputDeny())
                f->openOutputWindow(node);
            if (f->drawDivertStorm())
                nodes[node].kernel.forceDivert();
            if (f->drawAtomTimeout())
                nodes[node].ni.injectAtomicityTimeout();
            scheduleFaultTick(node, k + 1);
        },
        k * cfg.fault.tickInterval, "fault-tick");
}

void
Machine::scheduleBoundary(NodeId node, std::uint64_t k)
{
    const Cycle when = k * gang_.quantum + gangOffset_[node];
    queueFor(node).scheduleFn(
        [this, node, k] {
            nodes[node].kernel.requestSwitch(pickGangTarget(node, k));
            scheduleBoundary(node, k + 1);
        },
        when, "gang-boundary");
}

Cycle
Machine::nextEventFloor()
{
    Cycle floor = kMaxCycle;
    for (EventQueue *q : shardEq_)
        floor = std::min(floor, q->nextTime());
    return floor;
}

void
Machine::runPhase(Cycle floor, Cycle limit)
{
    // Events in [floor, floor + lookahead) are safe to run without
    // hearing from other shards: any cross-shard message injected at
    // or after the floor arrives at floor + minimum-latency at the
    // earliest, and the lookahead never exceeds that minimum.
    const Cycle horizon = std::min(floor + lookahead_ - 1, limit);
    phaseBound_.store(horizon, std::memory_order_relaxed);
    auto bound = [this, horizon](std::size_t s) {
        phaseEvents_[s] += shardEq_[s]->run(horizon);
    };
    // Waking the pool costs more than running a near-empty phase
    // inline: with a latency-bounded lookahead many phases hold work
    // for a single shard, so dispatch wide only when at least two
    // shards have an event inside the horizon. Which thread runs a
    // shard never affects what it computes, so this keeps results
    // bit-identical to always-wide dispatch.
    unsigned busy = 0;
    for (unsigned s = 0; s < shards_.shards && busy < 2; ++s)
        if (shardEq_[s]->nextTime() <= horizon)
            ++busy;
    if (pool_ && busy > 1)
        pool_->run(shards_.shards, bound);
    else
        for (unsigned s = 0; s < shards_.shards; ++s)
            bound(s);
    for (unsigned s = 0; s < shards_.shards; ++s) {
        eventsRun_ += phaseEvents_[s];
        phaseEvents_[s] = 0;
    }
    // Every queue's clock now sits exactly at the horizon, so the
    // weave commits with dst.now() <= every staged arrival's ready.
    net.weave();
    osnet.weave();
    if (checker_)
        checker_->barrierSweep();
}

void
Machine::finishRun()
{
    net.mergeLaneStats();
    osnet.mergeLaneStats();
}

bool
Machine::runUntilDone(const Job *job, Cycle max_cycles)
{
    // Saturate: now() + max_cycles would wrap for a near-kMaxCycle
    // budget on a clock already past 0 and end the run at once.
    const Cycle limit =
        max_cycles > kMaxCycle - now() ? kMaxCycle : now() + max_cycles;
    if (shards_.shards == 1) {
        // The same batched drain as run(); the stop fires after the
        // event that finishes the job or first crosses the limit.
        if (!job->done())
            eventsRun_ += eq.run(kMaxCycle, [this, job, limit] {
                return job->done() || eq.now() > limit;
            });
        if (!job->done() && now() > limit)
            return false;
    } else {
        while (!job->done()) {
            const Cycle floor = nextEventFloor();
            if (floor == kMaxCycle)
                break; // every shard queue drained
            if (floor > limit) {
                finishRun();
                return false;
            }
            runPhase(floor, kMaxCycle);
        }
        finishRun();
    }
    if (job->done() && checker_)
        checker_->finalChecks();
    return job->done();
}

void
Machine::run(Cycle until)
{
    if (shards_.shards == 1) {
        eventsRun_ += eq.run(until);
        return;
    }
    for (;;) {
        const Cycle floor = nextEventFloor();
        if (floor == kMaxCycle || floor > until)
            break;
        runPhase(floor, until);
    }
    // Match the serial contract: the clock lands on `until` even when
    // the queues drained (or only hold later events).
    if (until != kMaxCycle)
        for (EventQueue *q : shardEq_)
            q->run(until);
    finishRun();
}

trace::TraceBuffer
Machine::mergedTrace() const
{
    trace::TraceBuffer out(0);
    out.setTag(cfg.trace.runTag);
    std::vector<std::size_t> idx(tracers_.size(), 0);
    for (;;) {
        std::size_t best = tracers_.size();
        Cycle best_ts = kMaxCycle;
        for (std::size_t s = 0; s < tracers_.size(); ++s) {
            const trace::TraceBuffer &b = tracers_[s]->buffer();
            if (idx[s] >= b.size())
                continue;
            // Strict < keeps the lowest shard on timestamp ties, so
            // the merge is a pure function of the shard count.
            if (best == tracers_.size() || b[idx[s]].ts < best_ts) {
                best = s;
                best_ts = b[idx[s]].ts;
            }
        }
        if (best == tracers_.size())
            break;
        out.append(tracers_[best]->buffer()[idx[best]]);
        ++idx[best];
    }
    return out;
}

} // namespace fugu::glaze
