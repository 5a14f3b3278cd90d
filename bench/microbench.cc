/**
 * @file
 * google-benchmark microbenchmarks of the substrate hot paths:
 * predictor lookups, cache accesses, workload generation,
 * whole-core simulation throughput, and the fixed per-request costs of
 * a served job (frame parse, job and result encoding, machine
 * construction).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bpred/gshare.hh"
#include "cache/cache.hh"
#include "common/scan_mask.hh"
#include "confidence/bpru.hh"
#include "confidence/jrs.hh"
#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/simulator.hh"
#include "pipeline/producer_table.hh"
#include "trace/workload.hh"

using namespace stsim;

namespace
{

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    Gshare g(8 * 1024);
    Rng rng(1);
    std::uint64_t hist = 0;
    for (auto _ : state) {
        Addr pc = 0x400000 + 4 * (rng.next() & 0xFFFF);
        auto p = g.predict(pc, hist);
        bool taken = rng.chance(0.6);
        g.update(pc, hist, taken);
        hist = (hist << 1) | taken;
        benchmark::DoNotOptimize(p.taken);
    }
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_JrsEstimate(benchmark::State &state)
{
    JrsEstimator jrs(8 * 1024, 12);
    Rng rng(2);
    DirectionPredictor::Prediction dir{true, 3, 3};
    for (auto _ : state) {
        Addr pc = 0x400000 + 4 * (rng.next() & 0xFFFF);
        benchmark::DoNotOptimize(jrs.estimate(pc, rng.next(), dir,
                                              true));
        jrs.update(pc, 0, rng.chance(0.9));
    }
}
BENCHMARK(BM_JrsEstimate);

void
BM_BpruEstimate(benchmark::State &state)
{
    BpruEstimator bpru(8 * 1024);
    Rng rng(3);
    DirectionPredictor::Prediction dir{true, 3, 3};
    for (auto _ : state) {
        Addr pc = 0x400000 + 4 * (rng.next() & 0xFFFF);
        benchmark::DoNotOptimize(bpru.estimate(pc, rng.next(), dir,
                                               true));
        bpru.update(pc, 0, rng.chance(0.9));
    }
}
BENCHMARK(BM_BpruEstimate);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache c({"bm", 64 * 1024, 2, 32, 1});
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(rng.next() & 0x3FFFF, false, false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto prog = Simulator::programFor("go");
    Workload w(prog, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(w.next().pc);
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_DispatchResolve(benchmark::State &state)
{
    // Dispatch-time dependence resolution against the last-producer
    // table: two source lookups, one publish and one retirement per
    // instruction, over a window-sized live set (the core's resolve
    // fast path, isolated from the rest of the pipeline).
    ProducerTable tab;
    tab.init(256);
    Rng rng(6);
    constexpr InstSeq kWindow = 128;
    InstSeq seq = 1;
    for (auto _ : state) {
        if (seq > kWindow)
            tab.erase(seq - kWindow); // oldest producer completes
        for (int k = 0; k < 2; ++k) {
            const InstSeq d = 1 + (rng.next() & 63);
            if (d < seq)
                benchmark::DoNotOptimize(tab.lookup(seq - d));
        }
        // Consecutive live seqs never alias in a 2x-sized table, so
        // the fast path always succeeds here -- as in the core.
        benchmark::DoNotOptimize(
            tab.tryInsert(seq, static_cast<std::uint32_t>(seq & 255)));
        ++seq;
    }
}
BENCHMARK(BM_DispatchResolve);

void
BM_FetchGroupGen(benchmark::State &state)
{
    // Batched fetch-group generation: the bulk Workload walker filling
    // an 8-wide group buffer, counted in generated instructions.
    auto prog = Simulator::programFor("go");
    Workload w(prog, 5);
    TraceInst buf[8];
    TraceInst *out[8];
    for (int i = 0; i < 8; ++i)
        out[i] = &buf[i];
    std::uint64_t insts = 0;
    for (auto _ : state) {
        const unsigned m = w.nextGroup(out, 8);
        insts += m;
        benchmark::DoNotOptimize(buf[m - 1].pc);
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FetchGroupGen);

void
BM_StoreScan(benchmark::State &state)
{
    // LSQ-style memory-ordering scan: a sliding 64-entry occupancy
    // with sparse store bits, one bounded find-first per load (the
    // loadMayIssue / tryForward pattern).
    ScanMask m;
    m.init(64);
    Rng rng(7);
    std::uint64_t base = 0;
    std::uint64_t tail = 0;
    for (; tail < 64; ++tail)
        if (rng.chance(0.2))
            m.set(tail);
    for (auto _ : state) {
        m.clear(base); // oldest entry retires
        ++base;
        if (rng.chance(0.2))
            m.set(tail); // a new store dispatches
        ++tail;
        benchmark::DoNotOptimize(m.firstSet(base, tail));
    }
}
BENCHMARK(BM_StoreScan);

void
BM_CoreSimulation(benchmark::State &state)
{
    // Whole-machine throughput in committed instructions/second.
    SimConfig cfg;
    cfg.benchmark = "crafty";
    cfg.maxInstructions = 50'000;
    cfg.warmupInstructions = 10'000;
    Experiment::byName("baseline").applyTo(cfg);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        SimResults r = Simulator(cfg).run();
        insts += r.core.committedInsts;
        benchmark::DoNotOptimize(r.ipc);
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreSimulation)->Unit(benchmark::kMillisecond);

void
BM_CoreSimulationC2(benchmark::State &state)
{
    SimConfig cfg;
    cfg.benchmark = "crafty";
    cfg.maxInstructions = 50'000;
    cfg.warmupInstructions = 10'000;
    Experiment::byName("C2").applyTo(cfg);
    for (auto _ : state) {
        SimResults r = Simulator(cfg).run();
        benchmark::DoNotOptimize(r.energyJ);
    }
}
BENCHMARK(BM_CoreSimulationC2)->Unit(benchmark::kMillisecond);

/** The serve workload's request shape: C2 on go, 1K insts, no warmup. */
SimJob
serveShapedJob()
{
    SimJob j;
    j.cfg.benchmark = "go";
    j.cfg.maxInstructions = 1'000;
    j.cfg.warmupInstructions = 0;
    j.cfg.runSeed = 12345;
    Experiment::byName("C2").applyTo(j.cfg);
    j.experiment = "C2";
    return j;
}

void
BM_ParseServeRequest(benchmark::State &state)
{
    // One stsim_serve request frame: id + a full manifest record.
    const std::string rec = serde::toJson(serveShapedJob());
    const std::string frame = "{\"id\":7," + rec.substr(1);
    serde::ServeRequest req;
    for (auto _ : state) {
        serde::ParseOutcome p = serde::parseServeRequest(frame, req);
        benchmark::DoNotOptimize(p.ok);
        benchmark::DoNotOptimize(req.job.cfg.maxInstructions);
    }
}
BENCHMARK(BM_ParseServeRequest);

void
BM_JobToJson(benchmark::State &state)
{
    // What a client pays to encode its next request.
    const SimJob job = serveShapedJob();
    for (auto _ : state) {
        std::string s = serde::toJson(job);
        benchmark::DoNotOptimize(s.data());
    }
}
BENCHMARK(BM_JobToJson);

void
BM_ResultRecordToJson(benchmark::State &state)
{
    // A served reply: the index plus a full SimResults (47 doubles).
    const SimJob job = serveShapedJob();
    SimResults r = Simulator(job.cfg).run();
    r.experiment = job.experiment;
    for (auto _ : state) {
        std::string s = serde::resultRecordToJson(7, r);
        benchmark::DoNotOptimize(s.data());
    }
}
BENCHMARK(BM_ResultRecordToJson);

void
BM_SimulatorConstruct(benchmark::State &state)
{
    // Construct + destroy one serve-shaped machine (the program cache
    // is warm after the first iteration, as in a running server).
    const SimConfig cfg = serveShapedJob().cfg;
    for (auto _ : state) {
        Simulator sim(cfg);
        benchmark::DoNotOptimize(&sim);
    }
}
BENCHMARK(BM_SimulatorConstruct);

} // namespace

BENCHMARK_MAIN();
