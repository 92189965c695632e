/**
 * @file
 * NetIf: the FUGU network interface hardware model.
 *
 * Implements the ISA-visible semantics of Section 4.1: the
 * memory-mapped register set of Figure 3, the atomic operations of
 * Table 1 (launch, dispose, beginatom, endatom), the interrupts and
 * traps of Table 2, and the UAC flag semantics of Table 3 including
 * the revocable-interrupt-disable atomicity timer and divert-mode.
 *
 * Operations that would trap return the trap vector to the calling
 * software wrapper (the UDM runtime), which takes the trap on its Cpu;
 * this keeps the hardware model free of control-flow concerns.
 *
 * One deviation from the hardware, documented in DESIGN.md: FUGU
 * blocks *stores* into the output descriptor when the network cannot
 * accept the implied message; we expose the same back-pressure through
 * spaceAvailable()/subscribeSpace() and let the inject wrapper block
 * before launch. The observable inject semantics (blocking, atomic
 * commit) are identical.
 */

#ifndef FUGU_CORE_NETIF_HH
#define FUGU_CORE_NETIF_HH

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "core/arch.hh"
#include "core/nibuf.hh"
#include "exec/cpu.hh"
#include "net/network.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace fugu::sim
{
class Binder;
class FaultInjector;
}

namespace fugu::core
{

/** Trap request returned by an NI operation (None = success). */
enum class NiTrap
{
    None,
    Protection,
    BadDispose,
    DisposeFailure,
    AtomicityExtend,
    DisposeExtend,
};

/** Map an NiTrap to its Cpu trap vector. */
unsigned trapVector(NiTrap t);

struct NetIfConfig
{
    /** Hardware input queue depth, in messages. */
    unsigned inputQueueMsgs = 4;

    /** Atomicity-timeout preset, in user cycles (a free parameter). */
    Cycle atomicityTimeout = 4000;

    /** Input-queue buffering design (see core/nibuf.hh). */
    NiBackendKind backend = NiBackendKind::StaticFifo;

    /** DAMQ: shared slot pool size (input + live output descriptor). */
    unsigned damqPoolMsgs = 16;

    /** DAMQ: max slots one (source,GID) flow may occupy. */
    unsigned damqFlowMsgs = 12;
};

/** Register NetIfConfig's fields on the scenario/config tree. */
void bindConfig(sim::Binder &b, NetIfConfig &c);

class NetIf : public net::NetSink
{
  public:
    NetIf(exec::Cpu &cpu, net::Network &network, NodeId id,
          NetIfConfig cfg, StatGroup *stat_parent);

    NetIf(const NetIf &) = delete;
    NetIf &operator=(const NetIf &) = delete;

    NodeId id() const { return id_; }
    const NetIfConfig &config() const { return cfg_; }

    /// @name NetSink (called by the network fabric)
    /// @{
    bool tryDeliver(net::Packet &&pkt) override;
    bool refusalIsSelective(const net::Packet &pkt) const override;
    /// @}

    /// @name User-visible registers (Figure 3)
    /// @{

    /** The message-available flag: matching message at the head. */
    bool messageAvailable() const;

    /** Current UAC register value. */
    unsigned uac() const { return uac_; }

    /** Words of the pending input message (0 if none). */
    unsigned inputSize() const;

    /**
     * Read word @p offset of the input window: word 0 is the header
     * (source node), word 1 the handler address, 2.. the payload.
     */
    Word readInput(unsigned offset) const;

    /** Write word @p offset of the output descriptor buffer. */
    void writeOutput(unsigned offset, Word w);

    /** Words currently described in the output buffer. */
    unsigned descriptorLength() const { return descLen_; }

    /**
     * The space-available register: can a @p words message to
     * @p dst be committed right now?
     */
    bool spaceAvailable(NodeId dst, unsigned words) const;

    /// @}
    /// @name Operations (Table 1)
    /// @{

    /**
     * Commit the described message to the network. @p user_mode
     * launches of kernel-tagged headers trap.
     */
    NiTrap launch(unsigned n, bool user_mode);

    /** Delete the current incoming message (Table 1 semantics). */
    NiTrap dispose(bool user_mode);

    /** UAC |= mask (user bits only). */
    void beginAtom(unsigned mask);

    /** Check kernel exit hooks, then UAC &= ~mask (Table 1). */
    NiTrap endAtom(unsigned mask);

    /// @}
    /// @name Kernel registers and privileged operations
    /// @{

    void setGid(Gid gid);
    Gid gid() const { return gid_; }

    void setDivert(bool on);
    bool divert() const { return divert_; }

    void setAtomicityTimeout(Cycle preset);
    Cycle atomicityTimeout() const { return cfg_.atomicityTimeout; }

    /** Set/clear the kernel UAC bits (dispose-pending etc.). */
    void setKernelUac(unsigned set_mask, unsigned clear_mask);

    /** Replace the whole UAC (process context switch restore). */
    void writeUac(unsigned value);

    /** Is the mismatch-available condition asserted? */
    bool mismatchPending() const;

    /** Kernel peek at the head message (null if none). */
    const net::Packet *head() const;

    /**
     * The message the kernel's mismatch path should service next
     * (null if none). For the static FIFO this is the front whenever
     * mismatchPending(); a DAMQ selects the oldest message needing
     * kernel attention even behind scheduled-GID traffic.
     */
    const net::Packet *mismatchHead() const;

    /**
     * Dequeue without user-mode checks: the mismatch head if one
     * needs service, else the oldest message.
     */
    net::Packet kernelExtract();

    /** The active input-buffering backend (cost/policy queries). */
    const NiBufferBackend &backend() const { return *inb_; }

    /** Save/restore the output descriptor across a context switch. */
    net::MsgVec saveOutput();
    void restoreOutput(const net::MsgVec &saved);

    /** One-shot waiter for when channel (id, dst) has room again. */
    void subscribeSpace(NodeId dst, net::SpaceWaiter *waiter);

    /** Attach a message-lifecycle trace recorder (null to disable). */
    void setTracer(trace::Recorder *tracer) { tracer_ = tracer; }

    /**
     * Attach a fault injector: input-queue-full bursts (tryDeliver
     * refuses arrivals) and output-full bursts (spaceAvailable reads
     * false). All send paths poll spaceAvailable, so an output burst
     * stalls but can never deadlock a sender.
     */
    void setFault(sim::FaultInjector *fault) { fault_ = fault; }

    /** Attach a packet-lifecycle watcher (the invariant checker). */
    void setWatcher(net::PacketWatcher *watcher) { watcher_ = watcher; }

    /**
     * Fault hook: fire the atomicity timer right now, as if the
     * user's interrupt-disable grace period had just expired. No-op
     * unless the timer is actually armed — the forced expiry must be
     * a timing change, never a semantic one.
     */
    void injectAtomicityTimeout();

    /// @}

    struct Stats
    {
        Stats(StatGroup *parent, NodeId id);
        StatGroup group;
        Scalar launches;
        Scalar received;
        Scalar disposed;
        Scalar mismatchIrqs;
        Scalar messageIrqs;
        Scalar atomicityTimeouts;
        Histogram fastLatency;
    };

    Stats stats;

  private:
    /**
     * The head the registers expose: the user-visible head when one
     * matches, else the oldest message (kernel-mode access order).
     * For the static FIFO both are the front.
     */
    const net::Packet *visibleHead() const;

    /**
     * Commit a descriptor-length change to the backend. Backends with
     * shared input/output space (DAMQ) free an input slot when the
     * descriptor dies, so the network is re-poked to re-offer any
     * packet refused for that slot.
     */
    void setDescLen(unsigned n);

    /** Recompute interrupt lines and timer enable after any change. */
    void updateLines(bool restart_timer = false);

    void raiseLine(unsigned line, bool want);

    /** The atomicity timer expired (Cpu user timer callback). */
    static void onAtomicityTimeout(void *self);

    exec::Cpu &cpu_;
    net::Network &network_;
    NodeId id_;
    NetIfConfig cfg_;

    std::unique_ptr<NiBufferBackend> inb_;
    std::array<Word, net::kMaxMessageWords> outBuf_;
    unsigned descLen_ = 0;

    unsigned uac_ = 0;
    Gid gid_ = kKernelGid;
    bool divert_ = false;

    bool timerRunning_ = false;
    bool linesRaised_[exec::kNumIrqLines] = {};
    trace::Recorder *tracer_ = nullptr;
    sim::FaultInjector *fault_ = nullptr;
    net::PacketWatcher *watcher_ = nullptr;
};

} // namespace fugu::core

#endif // FUGU_CORE_NETIF_HH
