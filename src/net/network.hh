/**
 * @file
 * Message-level interconnect model.
 *
 * The fabric preserves the properties the paper's mechanisms rely on,
 * without modelling wormhole routing:
 *
 *  - pairwise FIFO: messages between a given (src,dst) pair are
 *    delivered in injection order (as on the Alewife mesh);
 *  - finite buffering and back-pressure: each (src,dst) channel holds
 *    a bounded number of words in flight, and a full receive queue at
 *    the destination blocks the channel head, eventually blocking the
 *    sender's inject (this is what the atomicity timeout polices);
 *  - latency: base + per-hop (2D mesh dimension-ordered distance) +
 *    per-word serialization.
 *
 * A machine instantiates the class twice: the main user network and
 * the reserved, slower second network the operating system uses as a
 * guaranteed deadlock-free path (Section 4.2).
 */

#ifndef FUGU_NET_NETWORK_HH
#define FUGU_NET_NETWORK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "net/packet.hh"
#include "sim/event.hh"
#include "sim/flat_map.hh"
#include "sim/ring.hh"
#include "sim/shard.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace fugu::sim
{
class Binder;
class FaultInjector;
}

namespace fugu::net
{

/** Receiving side attached to each node (the NI input queue). */
class NetSink
{
  public:
    virtual ~NetSink() = default;

    /**
     * Offer an arrived packet to the node.
     * @return false if the input queue is full; the network will
     *         retry when onSinkSpaceFreed is called.
     */
    virtual bool tryDeliver(Packet &&pkt) = 0;

    /**
     * After tryDeliver refused @p pkt: was the refusal specific to
     * that packet's (src,gid) flow, leaving room for other flows?
     * Queue-wide refusals (a full static ring, an injected input-full
     * burst) return false — re-offering anything else is pointless.
     * When true, the network may deliver later arrivals from *other*
     * flows past the refused head (per-flow FIFO is preserved; only
     * cross-flow order, which the fabric never promised, changes).
     */
    virtual bool
    refusalIsSelective(const Packet &pkt) const
    {
        (void)pkt;
        return false;
    }
};

struct NetworkConfig
{
    /** Mesh dimensions; meshX*meshY must cover all attached nodes. */
    unsigned meshX = 4;
    unsigned meshY = 4;

    /** Fixed overhead per message. */
    Cycle latencyBase = 5;

    /** Router/wire latency per mesh hop. */
    Cycle perHop = 2;

    /** Serialization cost per word. */
    Cycle perWord = 1;

    /** Max words in flight per (src,dst) channel (back-pressure). */
    unsigned channelCapacityWords = 64;
};

/** Occupancy and probe lengths of a Network's channel tables. */
using ChannelTableHealth = sim::TableHealth;

/** Register NetworkConfig's fields on the scenario/config tree. */
void bindConfig(sim::Binder &b, NetworkConfig &c);

class Network
{
  public:
    Network(EventQueue &eq, NetworkConfig cfg, std::string name,
            StatGroup *stat_parent);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    const NetworkConfig &config() const { return cfg_; }

    /** Attach the receive sink for node @p id. */
    void attach(NodeId id, NetSink *sink);

    /** Can a @p words -word message be injected right now? */
    bool canAccept(NodeId src, NodeId dst, unsigned words) const;

    /**
     * Inject a packet. The caller must have checked canAccept; the
     * send side of the NI blocks stores to the output buffer
     * otherwise.
     */
    void send(Packet pkt);

    /**
     * Called by a sink after it dequeued a message, making room for
     * a blocked arrival.
     */
    void onSinkSpaceFreed(NodeId dst);

    /**
     * One-shot notification when channel (src,dst) has room again.
     * Used by the NI to wake a blocked injector. The waiter is linked
     * intrusively (no allocation) and unlinked before its callback
     * runs; it must stay alive until notified.
     */
    void subscribeSpace(NodeId src, NodeId dst, SpaceWaiter *waiter);

    /**
     * Attach a message-lifecycle trace recorder. @p os_net selects
     * the message-id tag so the two networks' injection sequences
     * stay distinguishable in a merged trace.
     */
    void
    setTracer(trace::Recorder *tracer, bool os_net)
    {
        laneTracer_[0] = tracer;
        osNet_ = os_net;
    }

    /**
     * Attach a fault injector: jitters packet delivery latency. Only
     * the user network gets one; the OS network must stay the
     * guaranteed deadlock-free path.
     */
    void setFault(sim::FaultInjector *fault) { laneFault_[0] = fault; }

    /// @name Parallel (bound-weave) engine hooks
    /// @{

    /**
     * Partition the network into one lane per shard of @p shards.
     * Lane l owns the send-side state (channels, sequence counter,
     * staging outbox) of shard l's nodes and schedules same-lane
     * arrivals on @p lane_eqs[l]; cross-lane traffic is staged and
     * committed by weave(). Must be called before any send; with one
     * shard the network behaves bit-identically to the serial build.
     */
    void setParallel(const sim::ShardMap *shards,
                     std::vector<EventQueue *> lane_eqs);

    /** Attach lane @p lane's trace recorder (parallel runs). */
    void
    setLaneTracer(unsigned lane, trace::Recorder *tracer)
    {
        laneTracer_[lane] = tracer;
    }

    /** Attach lane @p lane's fault injector (parallel runs). */
    void
    setLaneFault(unsigned lane, sim::FaultInjector *fault)
    {
        laneFault_[lane] = fault;
    }

    /**
     * Weave phase: serially commit everything the bound phase staged,
     * in fixed lane order so the result is deterministic. First the
     * deferred cross-lane channel releases run (possibly waking
     * blocked senders, whose sends are staged and picked up below),
     * then every staged cross-lane packet is scheduled onto its
     * destination lane's queue, per-channel FIFO order preserved.
     * No-op when the network has a single lane.
     */
    void weave();

    /**
     * Fold the per-lane scratch counters into the canonical stats
     * (idempotent; called by the Machine when a parallel run stops).
     */
    void mergeLaneStats();

    /// @}

    /** Attach a packet-lifecycle watcher (the invariant checker). */
    void setWatcher(PacketWatcher *watcher) { watcher_ = watcher; }

    /**
     * Channel-table health summed over every lane: how many (src,dst)
     * channels are live (words in flight or senders blocked), the
     * slots holding them, and how many slots a lookup of an existing
     * channel probes (1 = found at its home slot). Read-only
     * diagnostics; serial contexts only.
     */
    ChannelTableHealth channelTableHealth() const;

    /** Dimension-ordered mesh hop count between two nodes. */
    unsigned hops(NodeId a, NodeId b) const;

    /** End-to-end delivery latency for a message of @p words words. */
    Cycle latency(NodeId src, NodeId dst, unsigned words) const;

    struct Stats
    {
        Stats(StatGroup *parent, const std::string &name);
        StatGroup group;
        Scalar messages;
        Scalar words;
        Distribution deliveryLatency;
        Scalar headOfLineBlocks;
        Scalar headOfLineBypasses;
    };

    Stats stats;

  private:
    using ChannelKey = std::uint32_t;

    // The channel map packs (src,dst) into 16 bits each. NodeId is
    // currently 16 bits so the pack is lossless by construction; if
    // NodeId ever widens, this must fail to compile rather than
    // silently alias channels between distant node pairs.
    static_assert(sizeof(NodeId) <= 2,
                  "Network::key packs NodeId into 16 bits");

    static ChannelKey
    key(NodeId src, NodeId dst)
    {
        return (static_cast<ChannelKey>(src) << 16) | dst;
    }

    struct Channel
    {
        unsigned wordsInFlight = 0;
        Cycle lastArrival = 0;
        // Intrusive FIFO of blocked senders (see SpaceWaiter).
        SpaceWaiter *waitHead = nullptr;
        SpaceWaiter *waitTail = nullptr;
    };

    /**
     * (src,dst) -> Channel. A channel exists only while it has words
     * in flight or blocked senders: send() creates it, the release
     * that drains it erases it (DESIGN §13). Lookups on the
     * per-message path are one or two cache lines.
     */
    using ChannelMap = sim::FlatMap<Channel>;

    /** A cross-lane packet awaiting the weave commit. */
    struct Staged
    {
        Packet pkt;
        Cycle ready;
    };

    /** A cross-lane channel release deferred to the weave. */
    struct Release
    {
        unsigned srcLane;
        ChannelKey key;
        unsigned words;
    };

    /**
     * Per-destination-lane stat scratch. Deliveries run on the lane's
     * thread during the bound phase, so they may not touch the shared
     * Stats; the scratch is merged (in lane order) at run end.
     */
    struct LaneScratch
    {
        double messages = 0;
        double words = 0;
        double holBlocks = 0;
        double holBypasses = 0;
        std::uint64_t latCount = 0;
        double latSum = 0;
        double latMin = 0;
        double latMax = 0;
    };

    /**
     * Lane sequence numbers pack the lane into the top 16 bits so
     * per-lane counters never collide machine-wide; lane 0 (and any
     * serial run) keeps the plain 0,1,2,... sequence.
     */
    static constexpr unsigned kLaneSeqShift = 48;

    unsigned
    laneOf(NodeId n) const
    {
        return shards_ ? shards_->of(n) : 0;
    }

    void drain(NodeId dst);

    /**
     * Head-of-line bypass: the sink refused the queue head for a
     * flow-local reason (per-flow cap), so offer later arrivals from
     * other flows, preserving per-(src,gid) FIFO. Returns the number
     * delivered.
     */
    std::size_t bypassBlockedHead(NodeId dst, unsigned dlane);

    void accountDelivery(unsigned dlane, NodeId src, NodeId dst,
                         unsigned words, Cycle injected);

    /**
     * Return @p words of channel @p k (owned by lane @p lane) and
     * wake its blocked senders; erases the channel once it drains.
     */
    void releaseChannel(unsigned lane, ChannelKey k, unsigned words);

    EventQueue &eq_;
    NetworkConfig cfg_;
    std::string name_;
    std::string arriveName_; // precomputed: scheduleFn is per-packet
    std::vector<NetSink *> sinks_;

    /** Per-destination queues of packets that finished traversal. */
    std::vector<sim::RingDeque<Packet>> arrived_;

    // Per-lane state (index 0 only until setParallel). Channels and
    // the sequence counter belong to the sender's lane; the staging
    // outbox to the sender's, releases and scratch to the receiver's.
    std::vector<ChannelMap> chans_;
    std::vector<std::uint64_t> laneSeq_;
    std::vector<std::vector<Staged>> outbox_;
    std::vector<std::vector<Release>> releases_;
    std::vector<std::size_t> weaveCount_; // scratch for weave()
    std::vector<LaneScratch> scratch_;
    // Per-lane blocked-flow keys for the head-of-line bypass scan
    // (reused so the scan allocates only up to each lane's high-water
    // mark; lanes scan concurrently, so one buffer each).
    std::vector<std::vector<std::uint64_t>> bypassScratch_;
    std::vector<EventQueue *> laneEq_;
    std::vector<trace::Recorder *> laneTracer_;
    std::vector<sim::FaultInjector *> laneFault_;

    const sim::ShardMap *shards_ = nullptr;
    bool parallel_ = false;
    bool osNet_ = false;

    PacketWatcher *watcher_ = nullptr;
};

} // namespace fugu::net

#endif // FUGU_NET_NETWORK_HH
