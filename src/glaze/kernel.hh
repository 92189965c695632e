/**
 * @file
 * Kernel: the per-node half of the Glaze operating system.
 *
 * Owns the trap/interrupt vectors and implements the software side of
 * two-case delivery (Section 4):
 *
 *  - the message-available stub: prologue costs, GID/timer/upcall
 *    bookkeeping, then an upcall context running the user handler,
 *    with the dispose-pending / atomicity-extend exit hooks;
 *  - the mismatch-available handler: kernel-message dispatch, and the
 *    buffer-insert path into the target process's virtual buffer
 *    (including demand page allocation and overflow control);
 *  - the atomicity-timeout handler: revocation — transparent entry
 *    into buffered mode;
 *  - the dispose-extend / dispose-failure / atomicity-extend /
 *    bad-dispose / protection / page-fault traps;
 *  - the gang-scheduler quantum switch (save/restore of the NI user
 *    state, GID, divert-mode) and the idle-hook dispatcher that feeds
 *    the current process's thread scheduler.
 */

#ifndef FUGU_GLAZE_KERNEL_HH
#define FUGU_GLAZE_KERNEL_HH

#include <functional>
#include <unordered_map>

#include "sim/ring.hh"

#include "core/costs.hh"
#include "core/netif.hh"
#include "glaze/process.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace fugu::glaze
{

class Machine;
class Kernel;

/** GID installed when no process is scheduled. */
inline constexpr Gid kIdleGid = 0xfffe;

/** Handler for a kernel (OS) message, on either network. */
using KernelHandler =
    std::function<exec::CoTask<void>(Kernel &, net::Packet)>;

/** Well-known kernel message ids. */
enum KernelMsgId : Word
{
    kOsNull = 0,       ///< no-op (kernel messaging microbenchmark)
    kOsSuspendJob = 1, ///< overflow control: suspend gid payload[0]
    kOsResumeJob = 2,  ///< overflow control: resume gid payload[0]
    kOsUser = 8,       ///< first id free for benches/tests
};

/** Second-network receive queue (the OS's deadlock-free path). */
class OsNic : public net::NetSink
{
  public:
    OsNic(exec::Cpu &cpu, net::Network &osnet, NodeId id);

    bool tryDeliver(net::Packet &&pkt) override;

    bool empty() const { return q_.empty(); }
    net::Packet pop();

    /** Attach a message-lifecycle trace recorder (null to disable). */
    void setTracer(trace::Recorder *tracer) { tracer_ = tracer; }

  private:
    exec::Cpu &cpu_;
    NodeId id_;
    trace::Recorder *tracer_ = nullptr;
    sim::RingDeque<net::Packet> q_;
};

class Kernel
{
  public:
    /** @p cpu, @p ni and @p frames are this node's own (Machine::Node). */
    Kernel(Machine &machine, NodeId id, exec::Cpu &cpu, core::NetIf &ni,
           FramePool &frames);

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Install interrupt/trap vectors and the idle hook. */
    void init();

    NodeId id() const { return id_; }
    exec::Cpu &cpu() { return cpu_; }
    core::NetIf &ni() { return ni_; }
    FramePool &frames() { return frames_; }
    const core::CostModel &costs() const;
    core::AtomicityMode atomicity() const;

    /// @name Processes
    /// @{

    void addProcess(Process *p);
    Process *findProcess(Gid gid) const;
    Process *current() const { return current_; }

    /** Make @p p current immediately (boot-time; no cost). */
    void installProcess(Process *p);

    /// @}
    /// @name Gang scheduling interface
    /// @{

    /** Request a switch to @p next at the next opportunity. */
    void requestSwitch(Process *next);

    /// @}
    /// @name Kernel messaging
    /// @{

    void setKernelHandler(Word id, KernelHandler fn);

    /** Send a kernel message on the main network. */
    exec::CoTask<void> kernelSend(NodeId dst, Word handler,
                                  net::PayloadVec payload = {});

    /** Send a kernel message on the second (OS) network. */
    exec::CoTask<void> osSend(NodeId dst, Word handler,
                              net::PayloadVec payload = {});

    /// @}

    /**
     * (Re)start the buffered-mode message-handling thread for @p p if
     * messages remain and no atomic section defers them.
     */
    void ensureDrain(Process *p);

    /**
     * Transparent switch into the software-buffered case. @p cause
     * records why for trace attribution (Section 4.2/4.3 triggers).
     */
    void enterBuffered(Process *p, bool from_atomic,
                       trace::DivertReason cause);

    /**
     * Fault hook: force the current process into buffered mode right
     * now, exercising the same transition an atomicity timeout or
     * page fault would take. No-op if there is no current process or
     * it is already buffered/suspended — like injectAtomicityTimeout,
     * the storm must stay within states the hardware could reach.
     */
    void forceDivert();

    struct Stats
    {
        Stats(StatGroup *parent, NodeId id);
        StatGroup group;
        Scalar upcalls;
        Scalar spuriousUpcalls;
        Scalar bufferInserts;
        Scalar kernelMsgs;
        Scalar processSwitches;
        Scalar modeEntries;
        Scalar modeExits;
        Scalar pageFaults;
        Scalar overflowEvents;
        Scalar droppedNoProcess;
        Histogram bufLatency;
    };

    Stats stats;

  private:
    friend class Machine;

    /// @name Interrupt handlers (kernel contexts)
    /// @{
    exec::Task onMessageAvailable();
    exec::Task onMismatchAvailable();
    exec::Task onAtomicityTimeout();
    exec::Task onOsNet();
    exec::Task onSched();
    /// @}

    /// @name Trap handlers
    /// @{
    exec::Task onDisposeExtend(exec::ContextPtr victim);
    exec::Task onAtomicityExtend(exec::ContextPtr victim);
    exec::Task onPageFault(exec::ContextPtr victim);
    exec::Task onFatalTrap(exec::ContextPtr victim, const char *what);
    /// @}

    /** The upcall context body: user handler + stub epilogue. */
    exec::Task upcallBody(Process *p, net::MsgVec saved_output);

    /** Buffered-mode message-handling thread body. */
    exec::Task drainBody(Process *p);

    /** Insert a diverted message into its process's virtual buffer. */
    exec::CoTask<void> bufferInsert(Process *p, net::Packet pkt,
                                    trace::DivertReason reason);

    /** The machine's trace recorder (null when tracing is off). */
    trace::Recorder *tracer() const;

    /** Overflow control: suspend job, swap out, resume (Section 4.2). */
    exec::CoTask<void> overflowControl(Process *p);

    /** Fault hook: take a page-fault trap on the scratch page. */
    exec::CoTask<void> injectHandlerFault(Process *p);

    /** Dispatch a kernel message (Table 4 kernel-mode path). */
    exec::CoTask<void> kernelDispatch(net::Packet pkt);

    void exitBuffered(Process *p);

    /** Idle hook: feed the current process's runnable work. */
    void dispatchIdle();

    Machine &m_;
    NodeId id_;
    exec::Cpu &cpu_;
    core::NetIf &ni_;
    FramePool &frames_;
    std::unordered_map<Gid, Process *> byGid_;
    Process *current_ = nullptr;
    Process *pendingNext_ = nullptr;
    bool havePendingNext_ = false;
    std::vector<KernelHandler> kernelHandlers_;
};

} // namespace fugu::glaze

#endif // FUGU_GLAZE_KERNEL_HH
