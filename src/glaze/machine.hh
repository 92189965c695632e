/**
 * @file
 * Machine: a whole simulated FUGU multiprocessor.
 *
 * Owns the event queue, both networks, and per node the Cpu, NetIf,
 * frame pool, second-network NIC and kernel; plus the jobs/processes
 * and the loose gang scheduler with synchronized-but-skewable clocks
 * used by the paper's experiments (Section 5).
 */

#ifndef FUGU_GLAZE_MACHINE_HH
#define FUGU_GLAZE_MACHINE_HH

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/costs.hh"
#include "core/netif.hh"
#include "glaze/check.hh"
#include "glaze/kernel.hh"
#include "glaze/process.hh"
#include "glaze/vm.hh"
#include "net/network.hh"
#include "sim/event.hh"
#include "sim/fault.hh"
#include "sim/pool.hh"
#include "sim/rng.hh"
#include "sim/shard.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace fugu::sim
{
class Binder;
}

namespace fugu::glaze
{

struct MachineConfig
{
    unsigned nodes = 8;

    net::NetworkConfig net{};
    net::NetworkConfig osNet{
        /*meshX=*/0, /*meshY=*/0, // filled from nodes
        /*latencyBase=*/50,
        /*perHop=*/10,
        /*perWord=*/8,
        /*channelCapacityWords=*/256,
    };

    core::NetIfConfig ni{};
    core::CostModel costs{};
    core::AtomicityMode atomicity = core::AtomicityMode::Hard;

    /** Physical page frames per node. */
    unsigned framesPerNode = 64;

    /**
     * Ablation: deliver every message via the buffered path (the
     * SUNMOS-style always-buffered organization of Section 2).
     */
    bool alwaysBuffered = false;

    /**
     * Ablation: model a system that pins its buffer pages — this many
     * frames per process are taken at creation and never returned.
     */
    unsigned pinnedBufferPages = 0;

    /**
     * Parallel engine: number of shards the nodes are partitioned
     * across (contiguous blocks). 1 selects the serial engine — the
     * bit-exact oracle. Values above the node count are clamped.
     */
    unsigned parShards = 1;

    /**
     * Bound-phase lookahead in cycles; 0 derives it from the minimum
     * cross-node delivery latency of the two networks. Explicit
     * values are clamped to [1, that minimum] so a scenario can
     * shorten phases (more frequent weaves) but never break the
     * causality guarantee.
     */
    Cycle lookahead = 0;

    /**
     * Engine: drain all same-cycle events per calendar-bucket touch
     * (one head/tail reload per batch instead of per event). Purely a
     * throughput knob — firing order is unchanged — kept switchable so
     * regressions can be bisected against the per-event drain.
     */
    bool batchFire = true;

    /** Message-lifecycle tracing (disabled by default). */
    trace::Options trace{};

    /** Deterministic fault injection (disabled by default). */
    sim::FaultConfig fault{};

    /** Machine-wide invariant checker (enabled by default). */
    CheckConfig check{};

    std::uint64_t seed = 1;
};

/** Gang-scheduler parameters (Section 5's experimental knobs). */
struct GangConfig
{
    /** Scheduler timeslice (the paper uses 500,000 cycles). */
    Cycle quantum = 500000;

    /**
     * Schedule quality knob: each node's quantum boundary is offset
     * by a fixed random draw from [0, skew*quantum], modelling the
     * paper's skewed cycle-count registers.
     */
    double skew = 0.0;
};

/**
 * Register the whole machine parameter tree: machine.*, net.*,
 * osnet.*, ni.*, costs.*, and trace.* (composes the per-layer
 * binders).
 */
void bindConfig(sim::Binder &b, MachineConfig &c);

/** Register the gang-scheduler knobs (gang.*). */
void bindConfig(sim::Binder &b, GangConfig &c);

class Machine
{
  public:
    explicit Machine(MachineConfig cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    struct Node
    {
        Node(Machine &m, NodeId id, EventQueue &eq);

        exec::Cpu cpu;
        core::NetIf ni;
        FramePool frames;
        OsNic osnic;
        Kernel kernel;
    };

    /**
     * Current simulated cycle: the minimum across shard clocks (the
     * machine has reached a cycle only once every shard has). With
     * one shard this is exactly the event queue's clock. Serial
     * contexts only — do not call from inside a bound phase.
     */
    Cycle
    now() const
    {
        Cycle t = eq.now();
        for (const auto &q : extraEqs_)
            t = std::min(t, q->now());
        return t;
    }

    unsigned nodeCount() const { return cfg.nodes; }
    Node &node(NodeId id) { return nodes[id]; }

    /// @name Parallel engine
    /// @{

    /** Shards the machine actually runs with (1 = serial oracle). */
    unsigned shardCount() const { return shards_.shards; }

    /** Shard owning node @p n. */
    unsigned shardOf(NodeId n) const { return shards_.of(n); }

    /** The event queue node @p n's events run on. */
    EventQueue &queueFor(NodeId n) { return *shardEq_[shards_.of(n)]; }

    /** Effective bound-phase lookahead (after derivation/clamping). */
    Cycle lookahead() const { return lookahead_; }

    /** Events processed by runUntilDone / run so far. */
    std::uint64_t eventsProcessed() const { return eventsRun_; }

    /**
     * How many of eventsProcessed() were spends completed in place
     * (EventQueue::completeInPlace) rather than fired from a queue.
     */
    std::uint64_t
    spendsInPlace() const
    {
        std::uint64_t n = 0;
        for (const Node &nd : nodes)
            n += nd.cpu.spendsInPlace();
        return n;
    }

    /**
     * How many of eventsProcessed() were same-cycle Cpu hops
     * (dispatch, context resume) completed in place.
     */
    std::uint64_t
    hopsInPlace() const
    {
        std::uint64_t n = 0;
        for (const Node &nd : nodes)
            n += nd.cpu.hopsInPlace();
        return n;
    }

    /**
     * In-place checks the shard queues refused
     * (EventQueue::inPlaceRefused): each spend or hop that got an
     * event after asking.
     */
    std::uint64_t
    inPlaceRefused() const
    {
        std::uint64_t n = 0;
        for (const EventQueue *q : shardEq_)
            n += q->inPlaceRefused();
        return n;
    }

    /**
     * A cycle stamp safe to read from any shard thread (the current
     * phase's bound). Serial machines report the exact clock. Used by
     * the invariant checker's diagnostics.
     */
    Cycle
    checkTime() const
    {
        return shards_.shards == 1
                   ? eq.now()
                   : phaseBound_.load(std::memory_order_relaxed);
    }

    /// @}

    /** The trace recorder, or null when tracing is disabled. The
     *  parallel engine records per shard; this is shard 0's. */
    trace::Recorder *tracer() const { return tracerAt(0); }

    /** The recorder node @p n's components log to (null if off). */
    trace::Recorder *
    tracerFor(NodeId n) const
    {
        return tracerAt(shards_.of(n));
    }

    /** All per-shard recorders (empty when tracing is disabled). */
    const std::vector<std::unique_ptr<trace::Recorder>> &
    allTracers() const
    {
        return tracers_;
    }

    /**
     * The union of the per-shard trace buffers, merged in (timestamp,
     * shard) order — deterministic for a fixed shard count. With one
     * shard this is a copy of the single buffer.
     */
    trace::TraceBuffer mergedTrace() const;

    /** The fault injector, or null when fault.enabled is false. The
     *  parallel engine injects per shard; this is shard 0's. */
    sim::FaultInjector *fault() const { return faultAt(0); }

    /** The injector perturbing node @p n (null when faults are off). */
    sim::FaultInjector *
    faultFor(NodeId n) const
    {
        return faultAt(shards_.of(n));
    }

    /** All per-shard injectors (empty when fault.enabled is false). */
    const std::vector<std::unique_ptr<sim::FaultInjector>> &
    allFaults() const
    {
        return faults_;
    }

    /** The invariant checker (always present; may be disabled). */
    InvariantChecker *checker() const { return checker_.get(); }

    /** Frames actually pinned on @p node by the pinning ablation. */
    unsigned pinnedFrames(NodeId node) const
    {
        return pinnedFrames_[node];
    }

    /**
     * Create a job: one Process per node, each with a main thread
     * running @p body. The job does not run until installed
     * (single-job) or the gang scheduler is started.
     */
    Job *addJob(std::string name, AppBody body);

    /** Make @p job current on every node immediately (no gang). */
    void installJob(Job *job);

    /**
     * Start gang-scheduling all jobs added so far, rotating each
     * quantum. Installs the first job at the current cycle.
     */
    void startGang(GangConfig gcfg);

    /**
     * Run until @p job finishes or @p max_cycles (saturating) pass.
     * A serial machine runs the event queue's batched drain with a
     * stop on job completion. With machine.par_shards > 1 this is
     * the bound-weave loop: every phase runs each shard's queue in
     * parallel up to a global horizon (the earliest pending event
     * anywhere plus the lookahead), then commits cross-shard packet
     * handoffs in fixed shard order.
     * @return false on cycle-limit exhaustion (likely deadlock).
     */
    bool runUntilDone(const Job *job, Cycle max_cycles = 2000000000ull);

    /** Run until the event queues drain or @p until passes. */
    void run(Cycle until = kMaxCycle);

    /**
     * Canonicalize a config the way the constructor will: size both
     * meshes to cover the node count. Public so the config layer can
     * dump the *effective* tree (--dump-config) before building any
     * machine; applying fix twice is a no-op.
     */
    static MachineConfig fix(MachineConfig cfg);

    MachineConfig cfg;
    EventQueue eq;

  private:
    // The shard queues are declared right after the primary queue so
    // every queue outlives the networks and nodes scheduling on them.
    sim::ShardMap shards_;
    std::vector<std::unique_ptr<EventQueue>> extraEqs_; // shards 1..
    std::vector<EventQueue *> shardEq_;                 // [0] == &eq

  public:
    StatGroup root;
    Rng rng;
    // Declared before the networks and nodes so they outlive them.
    std::vector<std::unique_ptr<trace::Recorder>> tracers_; // per shard
    // Same lifetime rule: nets and NIs hold raw pointers to these.
    std::vector<std::unique_ptr<sim::FaultInjector>> faults_; // per shard
    std::unique_ptr<InvariantChecker> checker_;
    net::Network net;
    net::Network osnet;
    std::deque<Node> nodes; // deque: Node is pinned (non-movable)
    std::vector<std::unique_ptr<Job>> jobs;
    std::vector<std::unique_ptr<Process>> processes;

  private:
    trace::Recorder *
    tracerAt(unsigned shard) const
    {
        return tracers_.empty() ? nullptr : tracers_[shard].get();
    }

    sim::FaultInjector *
    faultAt(unsigned shard) const
    {
        return faults_.empty() ? nullptr : faults_[shard].get();
    }

    /** Earliest pending event across shard queues (kMaxCycle = none). */
    Cycle nextEventFloor();

    /** One bound phase up to min(floor + lookahead, limit) + weave. */
    void runPhase(Cycle floor, Cycle limit);

    /** Flush staged traffic and fold lane stats (parallel runs). */
    void finishRun();

    void scheduleBoundary(NodeId node, std::uint64_t k);
    void scheduleFaultTick(NodeId node, std::uint64_t k);
    Process *pickGangTarget(NodeId node, std::uint64_t k);

    std::unique_ptr<sim::WorkerPool> pool_;
    Cycle lookahead_ = 1;
    std::uint64_t eventsRun_ = 0;
    std::vector<std::uint64_t> phaseEvents_; // per shard, per phase
    std::atomic<Cycle> phaseBound_{0};

    GangConfig gang_;
    bool gangRunning_ = false;
    std::vector<Cycle> gangOffset_; // per node
    std::vector<unsigned> pinnedFrames_; // per node, actual pins
    Gid nextGid_ = 1;
};

} // namespace fugu::glaze

#endif // FUGU_GLAZE_MACHINE_HH
