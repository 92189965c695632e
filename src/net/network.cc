#include "net/network.hh"

#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/log.hh"

namespace fugu::net
{

void
bindConfig(sim::Binder &b, NetworkConfig &c)
{
    b.item("mesh_x", c.meshX, "mesh width (0 = size from node count)",
           "nodes");
    b.item("mesh_y", c.meshY, "mesh height (0 = size from node count)",
           "nodes");
    b.item("latency_base", c.latencyBase, "fixed overhead per message",
           "cycles");
    b.item("per_hop", c.perHop, "router/wire latency per mesh hop",
           "cycles");
    b.item("per_word", c.perWord, "serialization cost per word",
           "cycles");
    b.item("channel_capacity_words", c.channelCapacityWords,
           "max words in flight per (src,dst) channel", "words");
}

Network::Stats::Stats(StatGroup *parent, const std::string &name)
    : group(name, parent),
      messages(&group, "messages", "messages delivered"),
      words(&group, "words", "words delivered"),
      deliveryLatency(&group, "latency",
                      "inject-to-sink-accept latency (cycles)"),
      headOfLineBlocks(&group, "hol_blocks",
                       "arrivals stalled by a full input queue"),
      headOfLineBypasses(&group, "hol_bypasses",
                         "arrivals delivered past a flow-blocked head")
{
}

Network::Network(EventQueue &eq, NetworkConfig cfg, std::string name,
                 StatGroup *stat_parent)
    : stats(stat_parent, name), eq_(eq), cfg_(cfg),
      name_(std::move(name)), arriveName_(name_ + "-arrive"),
      chans_(1), laneSeq_(1, 0), outbox_(1), releases_(1),
      weaveCount_(1, 0), scratch_(1), bypassScratch_(1),
      laneEq_{&eq_}, laneTracer_(1, nullptr), laneFault_(1, nullptr)
{
    fugu_assert(cfg_.meshX > 0 && cfg_.meshY > 0, "empty mesh");
    // key() packs node ids into 16 bits per endpoint; a mesh whose
    // addresses exceed NodeId would alias channels (and kNoNode must
    // stay out of the address space). Fail loudly instead.
    fugu_assert(static_cast<std::uint64_t>(cfg_.meshX) * cfg_.meshY <=
                    kNoNode,
                "mesh ", cfg_.meshX, "x", cfg_.meshY,
                " exceeds the NodeId address space");
    fugu_assert(cfg_.channelCapacityWords >= kMaxMessageWords,
                "channel must hold at least one max-size message");
}

void
Network::attach(NodeId id, NetSink *sink)
{
    fugu_assert(id < cfg_.meshX * cfg_.meshY, "node ", id,
                " outside the ", cfg_.meshX, "x", cfg_.meshY, " mesh");
    if (sinks_.size() <= id) {
        sinks_.resize(id + 1, nullptr);
        arrived_.resize(id + 1);
    }
    fugu_assert(!sinks_[id], "node ", id, " attached twice");
    sinks_[id] = sink;
}

unsigned
Network::hops(NodeId a, NodeId b) const
{
    const unsigned ax = a % cfg_.meshX, ay = a / cfg_.meshX;
    const unsigned bx = b % cfg_.meshX, by = b / cfg_.meshX;
    const unsigned dx = ax > bx ? ax - bx : bx - ax;
    const unsigned dy = ay > by ? ay - by : by - ay;
    return dx + dy;
}

Cycle
Network::latency(NodeId src, NodeId dst, unsigned words) const
{
    return cfg_.latencyBase + cfg_.perHop * hops(src, dst) +
           cfg_.perWord * words;
}

ChannelTableHealth
Network::channelTableHealth() const
{
    ChannelTableHealth h;
    for (const ChannelMap &m : chans_)
        m.addHealth(h);
    return h;
}

bool
Network::canAccept(NodeId src, NodeId dst, unsigned words) const
{
    const Channel *ch = chans_[laneOf(src)].find(key(src, dst));
    const unsigned in_flight = ch ? ch->wordsInFlight : 0;
    return in_flight + words <= cfg_.channelCapacityWords;
}

void
Network::setParallel(const sim::ShardMap *shards,
                     std::vector<EventQueue *> lane_eqs)
{
    fugu_assert(shards && shards->shards >= 1, "bad shard map");
    fugu_assert(lane_eqs.size() == shards->shards,
                "one event queue per lane required");
    fugu_assert(laneSeq_[0] == 0 && chans_[0].empty(),
                "setParallel after traffic started");
    // The lane is packed into seq bits [kLaneSeqShift, 64): the lane
    // count must fit, and per-lane counters must never reach the lane
    // bits. 2^16 lanes x 2^48 messages is unreachable in practice.
    fugu_assert(shards->shards <=
                    (std::uint64_t{1} << (64 - kLaneSeqShift)),
                "too many lanes for the seq packing");
    shards_ = shards;
    laneEq_ = std::move(lane_eqs);
    const unsigned lanes = shards_->shards;
    chans_.resize(lanes);
    laneSeq_.assign(lanes, 0);
    outbox_.resize(lanes);
    releases_.resize(lanes);
    weaveCount_.assign(lanes, 0);
    scratch_.assign(lanes, LaneScratch{});
    bypassScratch_.resize(lanes);
    laneTracer_.resize(lanes, nullptr);
    laneFault_.resize(lanes, nullptr);
    parallel_ = lanes > 1;
}

void
Network::send(Packet pkt)
{
    const unsigned words = pkt.size();
    fugu_assert(words <= kMaxMessageWords, "oversized message (", words,
                " words)");
    fugu_assert(pkt.dst < sinks_.size() && sinks_[pkt.dst],
                "send to unattached node ", pkt.dst);
    fugu_assert(canAccept(pkt.src, pkt.dst, words),
                "send without canAccept");

    const unsigned lane = laneOf(pkt.src);
    EventQueue &eq = *laneEq_[lane];
    Channel &ch = chans_[lane].getOrCreate(key(pkt.src, pkt.dst));
    ch.wordsInFlight += words;

    Cycle ready = eq.now() + latency(pkt.src, pkt.dst, words);
    // Injected jitter lands before the FIFO clamp below so it can
    // never reorder messages within a channel — pairwise FIFO is a
    // property of the fabric, not of benign timing.
    if (sim::FaultInjector *fault = laneFault_[lane])
        ready += fault->packetJitter();
    // Per-channel FIFO with serialization: a message cannot arrive
    // before an earlier one on the same channel has been received.
    ready = std::max(ready, ch.lastArrival + cfg_.perWord * words);
    ch.lastArrival = ready;

    pkt.injectedAt = eq.now();
    pkt.seq = (static_cast<std::uint64_t>(lane) << kLaneSeqShift) |
              laneSeq_[lane]++;
    if (watcher_)
        watcher_->onInject(pkt);
    FUGU_TRACE(laneTracer_[lane], pkt.src, trace::Type::Inject,
               osNet_ ? trace::osMsgId(pkt.seq)
                      : trace::userMsgId(pkt.seq),
               trace::DivertReason::None,
               (static_cast<std::uint32_t>(pkt.dst) << 16) | words);
    NodeId dst = pkt.dst;
    if (!parallel_ || laneOf(dst) == lane) {
        eq.scheduleFn(
            [this, dst, p = std::move(pkt)]() mutable {
                arrived_[dst].push_back(std::move(p));
                drain(dst);
            },
            ready, arriveName_.c_str());
    } else {
        // Cross-lane: the destination's queue may only be touched at
        // the barrier. Stage the packet; weave() commits it.
        outbox_[lane].push_back(Staged{std::move(pkt), ready});
    }
}

void
Network::drain(NodeId dst)
{
    auto &q = arrived_[dst];
    const unsigned dlane = laneOf(dst);
    while (!q.empty()) {
        Packet &head = q.front();
        const unsigned words = head.size();
        const NodeId src = head.src;
        const Cycle injected = head.injectedAt;
        if (!sinks_[dst]->tryDeliver(std::move(head))) {
            if (parallel_)
                ++scratch_[dlane].holBlocks;
            else
                ++stats.headOfLineBlocks;
            // A queue-wide refusal (full ring, input-full burst)
            // blocks everything equally: park until re-poked. A
            // flow-local refusal (a DAMQ flow at its per-(src,GID)
            // cap) must not let one tenant's parked packet starve
            // every other tenant queued behind it — offer the rest.
            if (sinks_[dst]->refusalIsSelective(q.front()))
                bypassBlockedHead(dst, dlane);
            return; // the head itself retries via onSinkSpaceFreed
        }
        q.pop_front();
        accountDelivery(dlane, src, dst, words, injected);
    }
}

std::size_t
Network::bypassBlockedHead(NodeId dst, unsigned dlane)
{
    auto &q = arrived_[dst];
    std::vector<std::uint64_t> &blocked = bypassScratch_[dlane];
    blocked.clear();
    const auto flowKey = [](const Packet &p) {
        return (static_cast<std::uint64_t>(p.src) << 32) | p.gid;
    };
    blocked.push_back(flowKey(q.front()));
    std::size_t delivered = 0;
    std::size_t i = 1;
    while (i < q.size()) {
        Packet &cand = q[i];
        const std::uint64_t k = flowKey(cand);
        bool skip = false;
        for (std::uint64_t b : blocked)
            if (b == k) {
                skip = true;
                break;
            }
        if (skip) {
            // A refused packet of this flow sits ahead: delivering
            // this one would reorder the stream.
            ++i;
            continue;
        }
        const unsigned words = cand.size();
        const NodeId src = cand.src;
        const Cycle injected = cand.injectedAt;
        if (!sinks_[dst]->tryDeliver(std::move(cand))) {
            if (!sinks_[dst]->refusalIsSelective(q[i]))
                break; // refusal went queue-wide; stop scanning
            blocked.push_back(flowKey(q[i]));
            ++i;
            continue;
        }
        q.remove_at(i); // earlier (blocked) entries shift back one
        ++delivered;
        if (parallel_)
            ++scratch_[dlane].holBypasses;
        else
            ++stats.headOfLineBypasses;
        accountDelivery(dlane, src, dst, words, injected);
    }
    return delivered;
}

void
Network::accountDelivery(unsigned dlane, NodeId src, NodeId dst,
                         unsigned words, Cycle injected)
{
    const double lat =
        static_cast<double>(laneEq_[dlane]->now() - injected);
    if (parallel_) {
        LaneScratch &sc = scratch_[dlane];
        ++sc.messages;
        sc.words += words;
        if (sc.latCount == 0) {
            sc.latMin = lat;
            sc.latMax = lat;
        } else {
            sc.latMin = std::min(sc.latMin, lat);
            sc.latMax = std::max(sc.latMax, lat);
        }
        ++sc.latCount;
        sc.latSum += lat;
    } else {
        ++stats.messages;
        stats.words += words;
        stats.deliveryLatency.sample(lat);
    }
    const unsigned slane = laneOf(src);
    if (!parallel_ || slane == dlane) {
        releaseChannel(slane, key(src, dst), words);
    } else {
        // The channel (and any blocked sender waiting on it) belongs
        // to the source's lane, whose thread may be growing that
        // lane's table right now: never look it up from here. The
        // weave finds it by key once every lane has stopped.
        releases_[dlane].push_back(Release{slane, key(src, dst), words});
    }
}

void
Network::weave()
{
    if (!parallel_)
        return;
    // Deferred cross-lane channel releases first: waking a blocked
    // sender may stage more packets, which the commit pass below then
    // picks up in the same weave.
    for (auto &rl : releases_) {
        for (const Release &r : rl)
            releaseChannel(r.srcLane, r.key, r.words);
        rl.clear();
    }
    // Bulk scheduleAt: pre-size each destination queue's pools so the
    // commit loop below never allocates mid-phase.
    for (auto &ob : outbox_)
        for (const Staged &s : ob)
            ++weaveCount_[laneOf(s.pkt.dst)];
    for (std::size_t l = 0; l < laneEq_.size(); ++l) {
        if (weaveCount_[l] != 0)
            laneEq_[l]->prepareBulk(weaveCount_[l]);
        weaveCount_[l] = 0;
    }
    // Commit staged packets in lane order, then per-lane in send
    // order, so the destination queue's (cycle, insertion) order — and
    // with it the whole simulation — is a pure function of the shard
    // count. The bound horizon guarantees ready >= the destination
    // clock whenever lookahead <= the minimum cross-node latency; the
    // max() also keeps degenerate zero-latency configs safe (a small,
    // documented timing deviation, never a causality violation).
    for (auto &ob : outbox_) {
        for (Staged &s : ob) {
            const NodeId dst = s.pkt.dst;
            EventQueue &dq = *laneEq_[laneOf(dst)];
            const Cycle at = std::max(s.ready, dq.now());
            dq.scheduleFn(
                [this, dst, p = std::move(s.pkt)]() mutable {
                    arrived_[dst].push_back(std::move(p));
                    drain(dst);
                },
                at, arriveName_.c_str());
        }
        ob.clear();
    }
}

void
Network::mergeLaneStats()
{
    if (!parallel_)
        return;
    for (LaneScratch &sc : scratch_) {
        stats.messages += sc.messages;
        stats.words += sc.words;
        stats.headOfLineBlocks += sc.holBlocks;
        stats.headOfLineBypasses += sc.holBypasses;
        stats.deliveryLatency.merge(sc.latCount, sc.latSum, sc.latMin,
                                    sc.latMax);
        sc = LaneScratch{};
    }
}

void
Network::onSinkSpaceFreed(NodeId dst)
{
    fugu_assert(dst < arrived_.size());
    drain(dst);
}

void
Network::releaseChannel(unsigned lane, ChannelKey k, unsigned words)
{
    ChannelMap &chans = chans_[lane];
    Channel *ch = chans.find(k);
    fugu_assert(ch && ch->wordsInFlight >= words);
    ch->wordsInFlight -= words;
    SpaceWaiter *w = ch->waitHead;
    // Detach the waiters, then drop a drained channel: the table holds
    // only live channels. Recreating it later cannot change timing —
    // its lastArrival is <= now, and a new send's ready time is at
    // least now + perWord * words, so the FIFO clamp never binds on a
    // fresh channel (DESIGN §13).
    if (ch->wordsInFlight == 0) {
        chans.erase(k);
    } else {
        ch->waitHead = nullptr;
        ch->waitTail = nullptr;
    }
    // `ch` must not be touched past this point: a woken sender may
    // re-enter send()/subscribeSpace() and recreate or grow the
    // channel map, invalidating the pointer. Waiters run in subscribe
    // order.
    while (w) {
        SpaceWaiter *next = w->nextWaiter_;
        w->nextWaiter_ = nullptr;
        w->linked_ = false;
        w->onSpaceAvailable();
        w = next;
    }
}

void
Network::subscribeSpace(NodeId src, NodeId dst, SpaceWaiter *waiter)
{
    fugu_assert(waiter && !waiter->linked_,
                "SpaceWaiter subscribed while already linked");
    waiter->linked_ = true;
    waiter->nextWaiter_ = nullptr;
    Channel &ch = chans_[laneOf(src)].getOrCreate(key(src, dst));
    if (ch.waitTail)
        ch.waitTail->nextWaiter_ = waiter;
    else
        ch.waitHead = waiter;
    ch.waitTail = waiter;
}

} // namespace fugu::net
