#include "glaze/check.hh"

#include <string>

#include "glaze/kernel.hh"
#include "glaze/machine.hh"
#include "glaze/process.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "trace/trace.hh"

namespace fugu::glaze
{

void
bindConfig(sim::Binder &b, CheckConfig &c)
{
    b.item("enabled", c.enabled,
           "run the machine-wide invariant checker");
    b.item("fatal", c.fatal,
           "abort the run on the first invariant violation");
    b.item("content", c.content,
           "verify end-to-end payload checksums (transparency)");
    b.item("sweep_every", c.sweepEvery,
           "frame-conservation sweep period (0 = final check only)",
           "deliveries");
    b.item("service_gap_limit", c.serviceGapLimit,
           "max unserviced wait per GID before a starvation violation "
           "(0 = watermark only)",
           "cycles");
    b.item("frame_share_limit", c.frameShareLimit,
           "max fraction of one node's frames a single GID may hold "
           "(0 = watermark only)");
}

InvariantChecker::Stats::Stats(StatGroup *parent)
    : group("check", parent),
      checkedDeliveries(&group, "checked_deliveries",
                        "user messages verified end to end"),
      fifoViolations(&group, "fifo_violations",
                     "per-sender FIFO order violations"),
      contentViolations(&group, "content_violations",
                        "payload checksum mismatches"),
      gidViolations(&group, "gid_violations",
                    "cross-GID delivery / visibility violations"),
      atomicityViolations(&group, "atomicity_violations",
                          "handler dispatches outside an atomic section"),
      conservationViolations(&group, "conservation_violations",
                             "frame-pool accounting mismatches"),
      accountingViolations(&group, "accounting_violations",
                           "trace Divert counts vs kernel bufferInserts"),
      unknownDeliveries(&group, "unknown_deliveries",
                        "deliveries of packets never seen injected"),
      starvationViolations(&group, "starvation_violations",
                           "per-GID service gaps past the limit"),
      isolationViolations(&group, "isolation_violations",
                          "per-GID frame-pool shares past the limit"),
      maxServiceGap(&group, "max_service_gap",
                    "watermark: longest pending-traffic service gap"),
      maxFrameShare(&group, "max_frame_share",
                    "watermark: largest single-GID frame-pool share")
{
}

InvariantChecker::InvariantChecker(Machine &m, CheckConfig cfg)
    : stats(&m.root), m_(m), cfg_(cfg), nodeProcs_(m.nodeCount())
{
}

void
InvariantChecker::addProcess(Process &p)
{
    nodeProcs_[p.node()].push_back(&p);
}

std::uint64_t
InvariantChecker::checksum(const net::Packet &pkt)
{
    // FNV-style, one step per whole word, over everything user code
    // can observe about the message. Each step is a bijection in both
    // h and w, and the header packs are injective, so changing any one
    // header field or payload word always changes the result.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t w) { h = (h ^ w) * 0x100000001b3ull; };
    mix(streamKey(pkt.src, pkt.dst, pkt.gid));
    mix((std::uint64_t{pkt.handler} << 32) | pkt.payload.size());
    for (Word w : pkt.payload)
        mix(w);
    return h;
}

void
InvariantChecker::report(Scalar &counter, const std::string &msg)
{
    ++counter;
    warn("invariant violation @", m_.checkTime(), ": ", msg);
    if (cfg_.fatal)
        fugu_fatal("invariant violation (check.fatal=true): ", msg);
}

void
InvariantChecker::onInject(const net::Packet &pkt)
{
    if (!cfg_.enabled)
        return;
    // Kernel-tagged messages are internal protocol (scheduler
    // broadcasts etc.), not application messages with delivery
    // semantics to verify.
    if (pkt.gid == kKernelGid)
        return;
    auto lock = lockIfParallel();
    const std::uint64_t key = streamKey(pkt.src, pkt.dst, pkt.gid);
    Stream &st = streams_.getOrCreate(key);
    ++st.live;
    pending_.getOrCreate(pkt.seq) =
        PendingMsg{cfg_.content ? checksum(pkt) : 0, st.send++, key};
    // Starvation clock: the GID now has traffic pending; if it had
    // none before, gaps measure from this inject, so idle tenants
    // accrue nothing.
    GidState &g = gidState(pkt.gid);
    if (g.pending++ == 0)
        g.pendingSince = m_.checkTime();
}

void
InvariantChecker::onDeliver(const net::Packet &pkt, NodeId node,
                            Gid receiver_gid, bool buffered_path)
{
    if (!cfg_.enabled || pkt.gid == kKernelGid)
        return;
    auto lock = lockIfParallel();

    if (pkt.gid != receiver_gid)
        report(stats.gidViolations,
               detail::concat("packet gid ", pkt.gid, " consumed by gid ",
                         receiver_gid, " on node ", node,
                         buffered_path ? " (buffered)" : " (direct)"));
    if (pkt.dst != node)
        report(stats.gidViolations,
               detail::concat("packet for node ", pkt.dst,
                         " consumed on node ", node));

    noteService(gidState(pkt.gid), pkt.gid, m_.checkTime(),
                buffered_path);

    const PendingMsg *found = pending_.find(pkt.seq);
    if (!found) {
        report(stats.unknownDeliveries,
               detail::concat("seq ", pkt.seq, " consumed on node ", node,
                         " was never injected (or consumed twice)"));
        return;
    }

    // Copy out: the erase below moves table entries.
    const PendingMsg pm = *found;
    // Order is checked on the stream the message was injected on, so
    // a delivery with a corrupted header is a content violation, not
    // also a FIFO violation on whatever stream the header now names.
    Stream &st = *streams_.find(pm.stream);
    const std::uint64_t expect = st.consume;
    if (pm.orderIdx != expect)
        report(stats.fifoViolations,
               detail::concat("stream (", pkt.src, "->", pkt.dst, ", gid ",
                         pkt.gid, ") consumed message #", pm.orderIdx,
                         " but #", expect, " was next",
                         buffered_path ? " (buffered)" : " (direct)"));

    if (cfg_.content && pm.checksum != checksum(pkt))
        report(stats.contentViolations,
               detail::concat("seq ", pkt.seq, " payload changed between ",
                         "inject and consume (stream ", pkt.src, "->",
                         pkt.dst, ")"));

    pending_.erase(pkt.seq);
    retire(st, pm);
    ++stats.checkedDeliveries;

    ++deliveries_;
    if (cfg_.sweepEvery && deliveries_ % cfg_.sweepEvery == 0) {
        // A sweep reads every shard's frame pools and vbufs; under
        // the parallel engine that is only safe at a phase barrier.
        if (parallel_)
            sweepPending_ = true;
        else
            sweepConservation(sweepAll_);
    }
}

void
InvariantChecker::barrierSweep()
{
    if (!cfg_.enabled || !sweepPending_)
        return;
    sweepPending_ = false;
    sweepConservation(sweepAll_);
}

void
InvariantChecker::onDrop(const net::Packet &pkt, NodeId node)
{
    if (!cfg_.enabled || pkt.gid == kKernelGid)
        return;
    auto lock = lockIfParallel();
    (void)node;
    // A kernel-policy drop (no process owns the GID here) retires the
    // message's slot in its stream so later deliveries — if a process
    // does own the GID elsewhere in time — still FIFO-check cleanly.
    const PendingMsg *found = pending_.find(pkt.seq);
    if (!found)
        return;
    const PendingMsg pm = *found;
    pending_.erase(pkt.seq);
    retire(*streams_.find(pm.stream), pm);
    // The dropped message no longer waits for service.
    GidState &g = gidState(pkt.gid);
    if (g.pending && --g.pending == 0)
        g.pendingSince = 0;
}

void
InvariantChecker::retire(Stream &st, const PendingMsg &pm)
{
    if (pm.orderIdx >= st.consume)
        st.consume = pm.orderIdx + 1;
    if (--st.live == 0)
        streams_.erase(pm.stream);
}

void
InvariantChecker::onDispatch(Process &p, bool buffered_path)
{
    if (!cfg_.enabled)
        return;
    auto lock = lockIfParallel();

    // Handler atomicity (Section 3): a direct-path handler runs with
    // the hardware atomic section on; a buffered-path handler runs
    // under the drain thread. Neither may run while the drain is
    // gated behind a user atomic section suspended by revocation —
    // except the gated context itself (a resumed upcall that owns the
    // suspended section) finishing its own extraction, which is not
    // the drain thread.
    if (!p.port().buffered() && !p.port().atomicityOn())
        report(stats.atomicityViolations,
               detail::concat("direct dispatch outside an atomic section on ",
                         "node ", p.node(), " gid ", p.gid()));
    if (p.atomicGate && p.drainThread &&
        p.threads().current() == p.drainThread)
        report(stats.atomicityViolations,
               detail::concat("drain dispatch while the atomicity gate is ",
                         "closed on node ", p.node(), " gid ", p.gid()));

    // Protection: in direct mode the head the hardware would hand out
    // must carry this process's GID.
    if (!buffered_path && !p.port().ni().divert() &&
        p.port().ni().head() != nullptr &&
        p.port().ni().head()->gid != p.gid())
        report(stats.gidViolations,
               detail::concat("direct dispatch with a foreign-gid head on ",
                         "node ", p.node(), " (head gid ",
                         p.port().ni().head()->gid, ", process gid ",
                         p.gid(), ")"));
}

void
InvariantChecker::noteService(GidState &g, Gid gid, Cycle now,
                              bool buffered_path)
{
    // Starvation watermark: how long this GID's oldest pending
    // message had been waiting when service finally arrived. Measured
    // from the later of the last delivery and the first queued
    // inject; skipped entirely when no inject was tracked (a
    // delivery the injector never saw is the unknown-delivery check's
    // business, not a service gap).
    if (g.pending) {
        const Cycle since = g.lastService > g.pendingSince
                                ? g.lastService
                                : g.pendingSince;
        const Cycle gap = now > since ? now - since : 0;
        if (gap > g.iso.serviceGapMax)
            g.iso.serviceGapMax = gap;
        if (static_cast<double>(gap) > stats.maxServiceGap.value())
            stats.maxServiceGap.set(static_cast<double>(gap));
        if (cfg_.serviceGapLimit && gap > cfg_.serviceGapLimit)
            report(stats.starvationViolations,
                   detail::concat("gid ", gid, " went ", gap,
                             " cycles unserviced with traffic ",
                             "pending (limit ", cfg_.serviceGapLimit,
                             ")"));
        if (--g.pending == 0)
            g.pendingSince = 0;
    }
    g.lastService = now;
    // Victim-side divert attribution: which path served this tenant.
    if (buffered_path)
        ++g.iso.buffered;
    else
        ++g.iso.direct;
}

InvariantChecker::GidIsolation
InvariantChecker::isolation(Gid gid) const
{
    auto lock = lockIfParallel();
    return gid < gids_.size() ? gids_[gid].iso : GidIsolation{};
}

void
InvariantChecker::sweepConservation(bool all_nodes)
{
    for (NodeId n = 0; n < m_.nodeCount(); ++n) {
        FramePool &frames = m_.node(n).frames;
        if (!all_nodes && !frames.dirty())
            continue;
        if (!sweepNode(n))
            frames.clearDirty();
    }
}

bool
InvariantChecker::sweepNode(NodeId n)
{
    const FramePool &frames = m_.node(n).frames;
    bool violated = false;
    unsigned expected = m_.pinnedFrames(n);
    for (Process *proc : nodeProcs_[n])
        expected += proc->vbuf().pagesResident() + proc->as().mappedPages();
    const unsigned used = frames.used();
    if (used != expected) {
        violated = true;
        report(stats.conservationViolations,
               detail::concat("node ", n, " frame pool uses ", used,
                         " frames but ", expected,
                         " are accounted for (pinned + vbuf ",
                         "resident + heap mapped)"));
    }

    // Cross-tenant occupancy, fed by the same accounting the
    // conservation check just verified: how much of this node's pool
    // each GID pins right now (a node runs at most one process per
    // GID).
    const unsigned total = frames.total();
    if (total == 0)
        return violated;
    for (Process *proc : nodeProcs_[n]) {
        const unsigned held =
            proc->vbuf().pagesResident() + proc->as().mappedPages();
        GidState &g = gidState(proc->gid());
        if (held > g.iso.framePeak)
            g.iso.framePeak = held;
        const double share = static_cast<double>(held) / total;
        if (share > g.iso.frameShareMax)
            g.iso.frameShareMax = share;
        if (share > stats.maxFrameShare.value())
            stats.maxFrameShare.set(share);
        if (cfg_.frameShareLimit > 0.0 && share > cfg_.frameShareLimit) {
            violated = true;
            report(stats.isolationViolations,
                   detail::concat("gid ", proc->gid(), " holds ", held,
                             " of ", total, " frames on node ", n,
                             " (share limit ", cfg_.frameShareLimit,
                             ")"));
        }
    }
    return violated;
}

void
InvariantChecker::finalChecks()
{
    if (!cfg_.enabled)
        return;
    // The backstop: balance every node, dirty or not.
    sweepConservation(true);

    // Per-cause Divert trace events must sum to the kernels'
    // bufferInserts counters — every software-buffered insertion is
    // attributed to exactly one cause. Only checkable when every
    // shard's ring kept every event.
    const auto &tracers = m_.allTracers();
    if (tracers.empty())
        return;
    std::uint64_t diverts = 0;
    for (const auto &tr : tracers) {
        const trace::TraceBuffer &buf = tr->buffer();
        if (buf.dropped() != 0)
            return;
        for (std::size_t i = 0; i < buf.size(); ++i)
            if (buf[i].type ==
                static_cast<std::uint8_t>(trace::Type::Divert))
                ++diverts;
    }
    double inserts = 0;
    for (NodeId n = 0; n < m_.nodeCount(); ++n)
        inserts += m_.node(n).kernel.stats.bufferInserts.value();
    if (diverts != static_cast<std::uint64_t>(inserts))
        report(stats.accountingViolations,
               detail::concat("trace records ", diverts,
                         " Divert events but kernels count ", inserts,
                         " buffer inserts"));
}

double
InvariantChecker::totalViolations() const
{
    return stats.fifoViolations.value() + stats.contentViolations.value() +
           stats.gidViolations.value() +
           stats.atomicityViolations.value() +
           stats.conservationViolations.value() +
           stats.accountingViolations.value() +
           stats.unknownDeliveries.value() +
           stats.starvationViolations.value() +
           stats.isolationViolations.value();
}

} // namespace fugu::glaze
