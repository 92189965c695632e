#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "apps/common.hh"
#include "core/nibuf.hh"
#include "glaze/machine.hh"
#include "net/network.hh"
#include "report.hh"
#include "sim/event.hh"

namespace fugubench
{

using namespace fugu;
using Clock = std::chrono::steady_clock;

namespace
{

/**
 * Run @p reps repetitions of @p once, which returns the host seconds
 * it timed and fills @p r's counters; keep the median ns per unit.
 */
template <typename F>
LayerResult
repeat(unsigned reps, F &&once)
{
    LayerResult r;
    std::vector<double> ns;
    for (unsigned i = 0; i < reps; ++i) {
        r.counted = 0;
        const double secs = once(r);
        ++r.reps;
        if (r.counted != r.units)
            ++r.failedReps;
        if (r.units)
            ns.push_back(secs * 1e9 / static_cast<double>(r.units));
    }
    r.nsPerUnit = median(ns);
    return r;
}

/** A chained one-shot event: each firing schedules the next. */
struct Chain
{
    EventQueue *eq;
    std::uint64_t *remaining;
    std::uint64_t *fired;

    void
    operator()() const
    {
        ++*fired;
        if (*remaining == 0)
            return;
        --*remaining;
        eq->scheduleFn(*this, eq->now() + 1, "bench_chain");
    }
};

/** A node's input queue: @p cap slots, one packet served per
 *  @p service cycles, space handed back to the network. */
struct DrainSink : net::NetSink
{
    EventQueue *eq = nullptr;
    net::Network *net = nullptr;
    NodeId id = 0;
    unsigned cap = 4;
    Cycle service = 10;
    unsigned queued = 0;
    bool draining = false;
    std::uint64_t delivered = 0;

    bool
    tryDeliver(net::Packet &&) override
    {
        if (queued >= cap)
            return false;
        ++queued;
        if (!draining) {
            draining = true;
            eq->scheduleFn([this] { drainOne(); }, eq->now() + service,
                           "bench_sink");
        }
        return true;
    }

    void
    drainOne()
    {
        --queued;
        ++delivered;
        net->onSinkSpaceFreed(id);
        if (queued)
            eq->scheduleFn([this] { drainOne(); }, eq->now() + service,
                           "bench_sink");
        else
            draining = false;
    }
};

constexpr Word kStreamHandler = 20;

/** Per-process state of the message-stream layer driver. */
struct StreamState
{
    explicit StreamState(glaze::Process &p) : cv(p.threads()) {}

    rt::CondVar cv;
    std::uint64_t got = 0;
};

exec::CoTask<void>
streamMain(glaze::Process &p, std::uint64_t count)
{
    auto st = std::make_shared<StreamState>(p);
    p.appData = st;
    p.port().setHandler(
        kStreamHandler,
        [s = st.get()](core::UdmPort &port,
                       NodeId) -> exec::CoTask<void> {
            (void)co_await port.read(0);
            co_await port.dispose();
            ++s->got;
            s->cv.notifyAll();
        });
    const NodeId peer = p.node() == 0 ? 1 : 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        co_await p.compute(50);
        net::PayloadVec payload{static_cast<Word>(i)};
        co_await p.port().send(peer, kStreamHandler, std::move(payload));
    }
    while (st->got < count)
        co_await st->cv.wait();
}

constexpr unsigned kCrlNodes = 4;
constexpr unsigned kCrlRounds = 200;

exec::CoTask<void>
crlMain(glaze::Process &p, Word *final_count)
{
    apps::AppEnv &e = apps::env(p, kCrlNodes);
    const NodeId me = p.node();
    // Region 0 (home 0) is a write-shared counter; region n+1 is
    // node n's read-mostly region.
    e.crl.createRegion(0, 0, 1);
    for (NodeId n = 0; n < kCrlNodes; ++n)
        e.crl.createRegion(n + 1, n, 8);
    co_await e.barrier.wait();
    const crl::Rid peer = (me + 1) % kCrlNodes + 1;
    for (unsigned r = 0; r < kCrlRounds; ++r) {
        co_await e.crl.startWrite(0);
        e.crl.write(0, 0, e.crl.read(0, 0) + 1);
        co_await e.crl.endWrite(0);
        co_await e.crl.startRead(peer);
        (void)e.crl.read(peer, r % 8);
        co_await e.crl.endRead(peer);
    }
    co_await e.barrier.wait();
    if (me == 0) {
        co_await e.crl.startRead(0);
        *final_count = e.crl.read(0, 0);
        co_await e.crl.endRead(0);
    }
    co_await e.barrier.wait();
}

} // namespace

LayerResult
driveScheduleFire(unsigned reps)
{
    constexpr std::uint64_t kEvents = 1u << 21;
    constexpr unsigned kInFlight = 64;
    return repeat(reps, [&](LayerResult &r) {
        EventQueue eq;
        std::uint64_t remaining = kEvents - kInFlight;
        std::uint64_t fired = 0;
        r.units = kEvents;
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < kInFlight; ++i)
            eq.scheduleFn(Chain{&eq, &remaining, &fired}, eq.now() + 1,
                          "bench_chain");
        eq.run();
        const double s = secondsSince(t0);
        r.counted = fired;
        return s;
    });
}

LayerResult
driveNetwork(unsigned nodes, unsigned fanout, unsigned rounds,
             unsigned reps)
{
    fanout = std::min(fanout, nodes - 1);
    net::NetworkConfig cfg;
    cfg.meshX = 1;
    while (cfg.meshX * cfg.meshX < nodes)
        ++cfg.meshX;
    cfg.meshY = (nodes + cfg.meshX - 1) / cfg.meshX;
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(nodes) * fanout;
    // 8 packets of 3 words stay within a channel's 64-word capacity.
    constexpr unsigned kBatch = 8;

    return repeat(reps, [&](LayerResult &r) {
        EventQueue eq;
        StatGroup root("bench");
        net::Network net(eq, cfg, "net", &root);
        std::vector<DrainSink> sinks(nodes);
        for (NodeId n = 0; n < nodes; ++n) {
            sinks[n].eq = &eq;
            sinks[n].net = &net;
            sinks[n].id = n;
            net.attach(n, &sinks[n]);
        }
        r.units = pairs * rounds;
        std::uint64_t refused = 0;
        const auto t0 = Clock::now();
        for (unsigned round = 0; round < rounds; ++round) {
            for (NodeId s = 0; s < nodes; ++s) {
                for (unsigned k = 1; k <= fanout; ++k) {
                    const auto d = static_cast<NodeId>((s + k) % nodes);
                    net::Packet pkt;
                    pkt.src = s;
                    pkt.dst = d;
                    pkt.handler = 1;
                    pkt.payload = net::PayloadVec{round};
                    if (!net.canAccept(s, d, pkt.size())) {
                        ++refused;
                        continue;
                    }
                    net.send(std::move(pkt));
                }
            }
            // Drain every kBatch rounds, so each sink sees a burst
            // larger than its queue (head-of-line blocking).
            if ((round + 1) % kBatch == 0 || round + 1 == rounds)
                eq.run();
        }
        const double secs = secondsSince(t0);
        for (const DrainSink &k : sinks)
            r.counted += k.delivered;
        if (refused)
            r.counted = 0; // every send must have been admitted
        r.channels = static_cast<double>(pairs);
        r.holBlocks = net.stats.headOfLineBlocks.value();
        return secs;
    });
}

LayerResult
driveBackend(const core::NetIfConfig &cfg, unsigned reps)
{
    constexpr unsigned kRounds = 100000;
    constexpr unsigned kFlows = 6;
    return repeat(reps, [&](LayerResult &r) {
        std::unique_ptr<core::NiBufferBackend> be =
            core::makeNiBackend(cfg);
        std::uint64_t lastSeq[2 * kFlows] = {};
        std::uint64_t accepted = 0, extracted = 0, reordered = 0;
        std::uint64_t seq = 0;
        const auto t0 = Clock::now();
        for (unsigned round = 0; round < kRounds; ++round) {
            for (unsigned f = 0;; ++f) {
                net::Packet pkt;
                pkt.src = static_cast<NodeId>(f % kFlows);
                pkt.gid = static_cast<Gid>(1 + (f / kFlows) % 2);
                pkt.handler = 1;
                pkt.seq = ++seq;
                if (!be->canAccept(pkt))
                    break;
                be->accept(std::move(pkt));
                ++accepted;
            }
            while (const net::Packet *head = be->oldest()) {
                const net::Packet p = be->extractAt(head);
                std::uint64_t &last = lastSeq[2 * p.src + (p.gid - 1)];
                if (p.seq <= last)
                    ++reordered;
                last = p.seq;
                ++extracted;
            }
        }
        const double secs = secondsSince(t0);
        r.units = accepted;
        r.counted = reordered || !be->empty() ? 0 : extracted;
        return secs;
    });
}

LayerResult
driveMessages(bool buffered, unsigned reps)
{
    constexpr std::uint64_t kPerNode = 20000;
    return repeat(reps, [&](LayerResult &r) {
        glaze::MachineConfig cfg;
        cfg.nodes = 2;
        cfg.alwaysBuffered = buffered;
        glaze::Machine m(cfg);
        glaze::Job *job = m.addJob("stream", [](glaze::Process &p) {
            return streamMain(p, kPerNode);
        });
        m.installJob(job);
        r.units = 2 * kPerNode;
        const auto t0 = Clock::now();
        const bool done = m.runUntilDone(job);
        const double secs = secondsSince(t0);
        double direct = 0, viaBuffer = 0;
        for (const glaze::Process *p : job->procs) {
            direct += p->stats.directDelivered.value();
            viaBuffer += p->stats.bufferedDelivered.value();
        }
        // Every message must take the path this stream asked for.
        const double onPath = buffered ? viaBuffer : direct;
        const double offPath = buffered ? direct : viaBuffer;
        if (done && offPath == 0 &&
            m.checker()->totalViolations() == 0)
            r.counted = static_cast<std::uint64_t>(onPath);
        return secs;
    });
}

LayerResult
driveCrl(unsigned reps)
{
    return repeat(reps, [&](LayerResult &r) {
        glaze::MachineConfig cfg;
        cfg.nodes = kCrlNodes;
        glaze::Machine m(cfg);
        Word finalCount = 0;
        glaze::Job *job = m.addJob("crl", [&finalCount](glaze::Process &p) {
            return crlMain(p, &finalCount);
        });
        m.installJob(job);
        r.units = 2ull * kCrlRounds * kCrlNodes;
        const auto t0 = Clock::now();
        const bool done = m.runUntilDone(job);
        const double secs = secondsSince(t0);
        // The contended counter proves every write section landed.
        if (done && finalCount == kCrlRounds * kCrlNodes &&
            m.checker()->totalViolations() == 0)
            r.counted = r.units;
        return secs;
    });
}

} // namespace fugubench
