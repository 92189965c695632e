#include "workloads.hh"

#include <chrono>

#include "report.hh"

namespace fugubench
{

using namespace fugu;

namespace
{

std::vector<WorkloadSpec>
makeWorkloads()
{
    std::vector<WorkloadSpec> out;

    // Section 5.2 synth on a 512-node mesh, standalone, invariant
    // checker on (the default): the channel table and the checker's
    // O(nodes) conservation sweeps dominate host time.
    {
        WorkloadSpec w;
        w.name = "scale512_synth";
        w.app = WorkloadSpec::App::Synth;
        w.trials = 1;
        w.machine.nodes = 512;
        w.synth.groups = 2;
        w.synth.n = 50;
        out.push_back(w);
    }

    // Figure 10's stressed point: synth-1000 on 4 nodes against null
    // with 1% skew, T_betw = 275 and +400 buffered-path cycles. The
    // two-case mechanism under load: the event kernel, Cpu, NetIf,
    // backend, the kernel's buffered path and vbuf dominate.
    {
        WorkloadSpec w;
        w.name = "fig10_buffered";
        w.app = WorkloadSpec::App::Synth;
        w.trials = 64;
        w.multiprogram = true;
        w.machine.nodes = 4;
        w.machine.costs.bufferedPathExtra += 400;
        w.gang.quantum = 100000;
        w.gang.skew = 0.01;
        w.synth.n = 1000;
        w.synth.groups = 3;
        w.synth.tBetween = 275;
        w.synth.handlerStall = 200;
        w.hostSensitivity = 1.5;
        out.push_back(w);
    }

    // Open-loop Poisson KV serving on CRL at 8 nodes, 1.0 arrivals
    // per kcycle per node, Zipf 0.99 keys, 10% puts, multiprogrammed
    // against null: CRL coherence and an arrival process, with puts
    // (and their invalidations) beside the gets.
    {
        WorkloadSpec w;
        w.name = "serving_kv";
        w.app = WorkloadSpec::App::Serving;
        w.trials = 64;
        w.multiprogram = true;
        w.machine.nodes = 8;
        w.gang.quantum = 20000;
        w.gang.skew = 0.25;
        w.serve.app = "kv";
        w.serve.requests = 2000;
        w.serve.warmup = 200;
        w.serve.putFrac = 0.10;
        w.arrival.mix = "poisson";
        w.arrival.ratePerKcycle = 1.0;
        w.arrival.keys = 65536;
        w.arrival.zipfTheta = 0.99;
        w.hostSensitivity = 1.5;
        out.push_back(w);
    }

    for (WorkloadSpec &w : out)
        w.machine.parShards = 1;
    return out;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = makeWorkloads();
    return all;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::uint64_t
trialSeed(std::uint64_t seed, unsigned k)
{
    return seed * 64 + k + 1;
}

Trial::Trial(const WorkloadSpec &w, std::uint64_t seed, bool traced)
    : w_(w)
{
    glaze::MachineConfig cfg = w.machine;
    cfg.seed = seed;
    cfg.trace.enabled = traced;

    glaze::AppBody body;
    if (w.app == WorkloadSpec::App::Synth) {
        apps::SynthAppConfig sc = w.synth;
        sc.seed = seed;
        body = apps::makeSynthApp(cfg.nodes, sc);
    } else {
        serve::ServeConfig sc = w.serve;
        sc.seed = seed;
        sim::ArrivalConfig ac = w.arrival;
        ac.seed = seed;
        slots_ = std::make_shared<std::vector<serve::ServeResult>>(
            cfg.nodes);
        body = serve::makeServingApp(cfg.nodes, sc, ac, slots_);
    }

    const auto t0 = std::chrono::steady_clock::now();
    machine_ = std::make_unique<glaze::Machine>(cfg);
    buildS_ = secondsSince(t0);
    job_ = machine_->addJob("app", std::move(body));
    if (w.multiprogram) {
        machine_->addJob("null", apps::makeNullApp());
        machine_->startGang(w.gang);
    } else {
        machine_->installJob(job_);
    }
    setupS_ = secondsSince(t0);
}

bool
Trial::run()
{
    completed_ = machine_->runUntilDone(job_, w_.maxCycles);
    return completed_;
}

TrialOutput
Trial::output() const
{
    TrialOutput o;
    const glaze::Machine &m = *machine_;
    o.completed = completed_;
    o.violations = m.checker()->totalViolations();
    o.events = m.eventsProcessed();
    if (completed_)
        o.cycles = m.now() - job_->startCycle;
    for (const glaze::Process *p : job_->procs) {
        o.sent += static_cast<std::uint64_t>(p->stats.sent.value());
        o.direct +=
            static_cast<std::uint64_t>(p->stats.directDelivered.value());
        o.buffered += static_cast<std::uint64_t>(
            p->stats.bufferedDelivered.value());
    }
    for (const glaze::Machine::Node &n : m.nodes) {
        o.latency.merge(n.ni.stats.fastLatency.data());
        o.latency.merge(n.kernel.stats.bufLatency.data());
    }
    if (slots_) {
        const serve::ServeResult r = serve::mergeSlots(*slots_);
        o.reqOffered = r.offeredArrivals;
        o.reqCompleted = r.completed;
        o.reqBuffered = r.latBuffered.count;
    }
    return o;
}

} // namespace fugubench
