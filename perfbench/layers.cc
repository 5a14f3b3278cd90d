/**
 * @file
 * The traced per-layer run. Every layer is measured from outside, by
 * timing the benchmark's own calls into that layer's public API; the
 * runJobs lifecycle comes from the job.* spans runJobs already
 * records. The run writes one Chrome trace holding both, reports
 * obs.trace_overhead_frac, and requires the results (and so every
 * simulated per-layer count) of every traced pass to equal those of
 * the untraced ones.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bpred/bpred_unit.hh"
#include "cache/hierarchy.hh"
#include "common.hh"
#include "confidence/bpru.hh"
#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/simulator.hh"
#include "obs/trace.hh"
#include "power/power_model.hh"
#include "serve/server.hh"
#include "throttle/controller.hh"
#include "trace/workload.hh"

extern char **environ;

using namespace stsim;

namespace perfbench
{

namespace
{

/** Requests in the serve workload's fixed traced probe. */
constexpr std::uint64_t kServeProbeRequests = 128;

/** Committed-path instructions replayed per benchmark. */
constexpr std::size_t kReplayInsts = 400'000;

/** Sample size of the per-job Simulator and snapshot probes. */
unsigned
sampleSize(Kind k)
{
    return k == Kind::Serve ? 16 : 4;
}

/** The fixed job list a traced run measures (its counts repeat). */
std::vector<SimJob>
probeJobs(Kind k, std::uint64_t seed)
{
    if (k != Kind::Serve)
        return waveJobs(k, seed, 0);
    std::vector<SimJob> jobs;
    for (std::uint64_t i = 0; i < kServeProbeRequests; ++i)
        jobs.push_back(serveJob(seed, i));
    return jobs;
}

/** Results of a job list through one path, with its wall time. */
struct PathRun
{
    std::vector<SimResults> results;
    std::vector<double> rttMs; ///< served paths: per request index
    StreamStats stats;
    double wallS = 0;
    std::uint64_t busy = 0;
    std::uint64_t failed = 0; ///< error replies, transport failures
};

/**
 * Serve jobs[order[i]] as request i through @p clients closed-loop
 * clients of a fresh server (in-process, or --isolate worker
 * processes); results and round trips land at the request index.
 */
PathRun
runServed(const std::string &sock, unsigned workers, bool isolate,
          unsigned clients, const std::vector<SimJob> &jobs,
          const std::vector<std::size_t> &order)
{
    serve::ServeOptions so;
    so.unixPath = sock;
    so.workers = workers;
    so.isolate = isolate;
    so.runnerPath = PERFBENCH_RUNNER_PATH;
    ServeTraffic t;
    {
        serve::SimServer server(so);
        server.start();
        t = driveServe(
            sock, clients,
            [&](std::uint64_t i) { return requestFrame(jobs[order[i]], i); },
            order.size(), Clock::time_point::max(), true);
        server.beginDrain();
        server.waitDrained();
    }
    ::unlink(sock.c_str());

    PathRun p;
    p.results.resize(order.size());
    p.rttMs.assign(order.size(), 0.0);
    p.wallS = t.wallS;
    p.busy = t.busy;
    p.failed = t.errors + t.busy + (order.size() - t.index.size());
    for (std::size_t k = 0; k < t.index.size(); ++k) {
        p.results[t.index[k]] =
            serde::resultRecordFromJson(t.replies[k]).second;
        p.rttMs[t.index[k]] = t.rttMs[k];
    }
    return p;
}

/** The workload's own path: its wave, or its serve traffic. */
PathRun
runPath(Kind k, const std::vector<SimJob> &jobs, const std::string &sock)
{
    if (k != Kind::Serve) {
        WaveRun w = runWave(jobs, memoized(k));
        PathRun p;
        p.results = std::move(w.results);
        p.stats = w.stats;
        p.wallS = w.wallS;
        return p;
    }
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    return runServed(sock, 2, false, 2, jobs, order);
}

/** Count result mismatches of @p got against @p want. */
std::uint64_t
mismatches(const std::vector<SimResults> &want,
           const std::vector<SimResults> &got)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (i >= got.size() || resultBytes(want[i]) != resultBytes(got[i]))
            ++bad;
    }
    return bad;
}

/** Span durations (us) by name, parsed from a Chrome trace document. */
std::map<std::string, std::vector<double>>
spanDurations(const std::string &json)
{
    std::map<std::string, std::vector<double>> out;
    const std::string nameKey = "{\"name\":\"", durKey = "\"dur\":";
    for (std::size_t pos = json.find(nameKey); pos != std::string::npos;
         pos = json.find(nameKey, pos)) {
        pos += nameKey.size();
        const std::size_t end = json.find('"', pos);
        const std::size_t dur = json.find(durKey, end);
        if (end == std::string::npos || dur == std::string::npos)
            break;
        out[json.substr(pos, end - pos)].push_back(
            std::strtod(json.c_str() + dur + durKey.size(), nullptr));
        pos = dur;
    }
    return out;
}

/** Keeps replay results observable so no call is optimized away. */
volatile std::uint64_t g_replaySink = 0;

/** Host time and operation counts of the component replay. */
struct ReplayTotals
{
    double traceS = 0, bpredS = 0, confS = 0, cacheS = 0, powerS = 0,
           throttleS = 0;
    std::uint64_t insts = 0, branches = 0, condBranches = 0,
                  accesses = 0, cycles = 0;
};

/**
 * Replay @p n committed-path instructions of @p bench through each
 * component's public API in turn: Workload::nextGroup, BpredUnit,
 * the BPRU ConfidenceEstimator, MemoryHierarchy, PowerModel and the
 * C2 SpeculationController. There is no wrong path, so these are
 * lower bounds on the components' in-pipeline cost.
 */
void
replayBenchmark(const std::string &bench, std::uint64_t runSeed,
                std::size_t n, ReplayTotals &t)
{
    std::uint64_t check = 0;
    std::vector<TraceInst> stream(n);
    {
        TRACE_SPAN("layer.trace.next_group");
        Workload w(Simulator::programFor(bench), runSeed);
        TraceInst *slots[4];
        const Clock::time_point t0 = Clock::now();
        std::size_t i = 0;
        while (i < n) {
            const unsigned want =
                static_cast<unsigned>(std::min<std::size_t>(4, n - i));
            for (unsigned s = 0; s < want; ++s)
                slots[s] = &stream[i + s];
            i += w.nextGroup(slots, want);
        }
        t.traceS += secondsSince(t0);
        t.insts += n;
    }

    struct CondRec
    {
        Addr pc;
        std::uint64_t hist;
        DirectionPredictor::Prediction dir;
        bool correct;
    };
    std::vector<CondRec> conds;
    conds.reserve(n / 4);
    {
        TRACE_SPAN("layer.bpred.predict_update");
        BpredUnit bp{BpredConfig{}};
        const Clock::time_point t0 = Clock::now();
        for (const TraceInst &ti : stream) {
            if (!ti.isBranch())
                continue;
            const BranchPrediction pred = bp.predict(ti);
            const bool wrong = pred.predTaken != ti.taken ||
                               (ti.taken && pred.predTarget != ti.target);
            if (wrong)
                bp.squashRestore(ti, pred);
            bp.commitUpdate(ti, pred);
            if (ti.isCondBranch())
                conds.push_back({ti.pc, pred.histBefore, pred.dir,
                                 pred.predTaken == ti.taken});
            ++t.branches;
        }
        t.bpredS += secondsSince(t0);
        check += bp.condMispredicts();
    }

    std::vector<ConfLevel> levels(conds.size());
    {
        TRACE_SPAN("layer.confidence.estimate_update");
        BpruEstimator est(8 * 1024);
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < conds.size(); ++i) {
            const CondRec &c = conds[i];
            levels[i] = est.estimate(c.pc, c.hist, c.dir, c.correct);
            est.update(c.pc, c.hist, c.correct);
        }
        t.confS += secondsSince(t0);
        t.condBranches += conds.size();
    }

    {
        TRACE_SPAN("layer.cache.access");
        MemoryHierarchy mem{MemoryConfig{}};
        Addr lastLine = ~Addr{0};
        std::uint64_t lat = 0, accesses = 0;
        const Clock::time_point t0 = Clock::now();
        for (const TraceInst &ti : stream) {
            const Addr line = ti.pc >> 5;
            if (line != lastLine) {
                lat += mem.fetchInst(ti.pc, false).latency;
                lastLine = line;
                ++accesses;
            }
            if (isMemory(ti.cls)) {
                lat += mem.accessData(ti.memAddr, ti.isStore(), false)
                           .latency;
                ++accesses;
            }
        }
        t.cacheS += secondsSince(t0);
        t.accesses += accesses;
        check += lat;
    }

    {
        // One synthetic cycle per 4-wide fetch group; the per-unit
        // activity is counted before the clock starts.
        struct CycleRec
        {
            std::uint8_t n, branches, mem, alu, dest;
        };
        std::vector<CycleRec> cyc;
        cyc.reserve(n / 4 + 1);
        for (std::size_t i = 0; i < n; i += 4) {
            CycleRec c{};
            for (std::size_t j = i; j < std::min(n, i + 4); ++j) {
                const TraceInst &ti = stream[j];
                ++c.n;
                c.branches += ti.isBranch();
                c.mem += isMemory(ti.cls);
                c.alu += !ti.isBranch() && !isMemory(ti.cls);
                c.dest += ti.hasDest;
            }
            cyc.push_back(c);
        }
        TRACE_SPAN("layer.power.cycle");
        PowerModel pm(PowerParams::calibratedDefaults());
        const Clock::time_point t0 = Clock::now();
        for (const CycleRec &c : cyc) {
            pm.beginCycle();
            pm.record(PUnit::ICache, 1);
            pm.record(PUnit::Bpred, c.branches);
            pm.record(PUnit::Rename, c.n);
            pm.record(PUnit::Window, c.n);
            pm.record(PUnit::Regfile, 2.0 * c.n);
            pm.record(PUnit::Alu, c.alu);
            pm.record(PUnit::Lsq, c.mem);
            pm.record(PUnit::DCache, c.mem);
            pm.record(PUnit::ResultBus, c.dest);
            pm.endCycle();
        }
        t.powerS += secondsSince(t0);
        t.cycles += cyc.size();
        check += static_cast<std::uint64_t>(pm.totalEnergy() * 1e12);
    }

    {
        TRACE_SPAN("layer.throttle.track");
        SpeculationController ctl(Experiment::byName("C2").specControl);
        std::deque<std::size_t> inflight; // indices into conds
        std::uint64_t active = 0;
        Cycle cycle = 0;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < conds.size(); ++i) {
            const InstSeq seq = i + 1;
            ctl.onCondBranchFetched(seq, levels[i]);
            inflight.push_back(i);
            ctl.tickStats(++cycle);
            active += ctl.fetchActive(cycle) + ctl.decodeActive(cycle);
            // Resolve in order with a fixed window of unresolved
            // branches; a misprediction squashes everything younger.
            if (inflight.size() > 8) {
                const std::size_t r = inflight.front();
                inflight.pop_front();
                ctl.onBranchResolved(r + 1);
                if (!conds[r].correct) {
                    ctl.squashYoungerThan(r + 1);
                    inflight.clear();
                }
            }
        }
        t.throttleS += secondsSince(t0);
        check += active + ctl.fetchGatedCycles();
    }
    g_replaySink = g_replaySink + check;
}

/** Run a child process to completion; its wall time, or -1. */
double
runChild(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    pid_t pid = -1;
    const Clock::time_point t0 = Clock::now();
    int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        return -1;
    int status = 0;
    ::waitpid(pid, &status, 0);
    const double s = secondsSince(t0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? s : -1;
}

/**
 * `stsim_runner dispatch` of the sweep manifest over 4 shard
 * processes, against the same wave in process. Returns the extra wall
 * seconds; every dispatched record must match the in-process one.
 */
double
dispatchOverhead(const Options &opt, Report &rep)
{
    namespace fs = std::filesystem;
    const std::vector<SimJob> jobs = waveJobs(Kind::Sweep, opt.seed, 0);
    const std::string dir =
        opt.outDir + "/dispatch-" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir + "/out");
    const std::string manifest = dir + "/manifest.jsonl";
    {
        std::ofstream m(manifest);
        for (const SimJob &j : jobs)
            m << serde::toJson(j) << '\n';
    }
    const WaveRun local = runWave(jobs, false);
    const double dispatched = runChild(
        {PERFBENCH_RUNNER_PATH, "dispatch", "--manifest", manifest, "--dir",
         dir + "/out", "--shards", "4", "--jobs", "1"});
    std::uint64_t records = 0, bad = dispatched < 0 ? 1 : 0;
    for (unsigned s = 0; s < 4; ++s) {
        std::ifstream in(dir + "/out/shard-" + std::to_string(s) + ".jsonl");
        std::string line;
        while (std::getline(in, line)) {
            const std::uint64_t i = serde::resultRecordIndex(line);
            ++records;
            if (i >= jobs.size() ||
                line != serde::resultRecordToJson(i, local.results[i]))
                ++bad;
        }
    }
    if (records != jobs.size())
        ++bad;
    rep.attempted(jobs.size(), bad);
    if (bad)
        rep.note("dispatch: " + std::to_string(bad) +
                 " records missing or different from the in-process wave");
    fs::remove_all(dir);
    return dispatched - local.wallS;
}

/** Per-request cost of the serve daemon and of its --isolate fleet. */
struct ServeOverheads
{
    double serveUs = 0; ///< in-process round trip minus direct run
    double fleetUs = 0; ///< --isolate round trip minus in-process
    std::uint64_t busy = 0;
};

/**
 * Measured on the serve workload's request shape whatever the
 * workload: on tiny jobs the per-request overhead is a large share of
 * the round trip, while on a sweep job it would drown in the
 * run-to-run spread of the simulation itself. Each path runs the
 * requests twice and the second round counts (the first starts the
 * fleet's workers and fills the program cache).
 */
ServeOverheads
serveOverheads(const Options &opt, Report &rep)
{
    constexpr std::size_t kRequests = 64;
    std::vector<SimJob> jobs;
    for (std::uint64_t i = 0; i < kRequests; ++i)
        jobs.push_back(serveJob(opt.seed, i));
    std::vector<std::size_t> order;
    for (unsigned round = 0; round < 2; ++round)
        for (std::size_t i = 0; i < kRequests; ++i)
            order.push_back(i);

    std::vector<SimResults> direct(kRequests);
    std::vector<double> directMs;
    {
        TRACE_SPAN("layer.serve.direct");
        for (std::size_t i : order) {
            const Clock::time_point t0 = Clock::now();
            direct[i] = Simulator(jobs[i].cfg).run();
            directMs.push_back(secondsSince(t0) * 1e3);
            direct[i].experiment = jobs[i].experiment;
        }
    }
    auto secondRoundP50 = [&](const std::vector<double> &ms) {
        return median(std::vector<double>(ms.begin() + kRequests, ms.end()));
    };
    auto check = [&](const PathRun &p) {
        std::uint64_t bad = p.failed;
        for (std::size_t i = 0; i < order.size(); ++i)
            bad += resultBytes(p.results[i]) != resultBytes(direct[order[i]]);
        rep.attempted(order.size(), bad);
        if (bad)
            rep.note(std::to_string(bad) +
                     " served replies differ from direct runs");
    };
    const std::string sock =
        opt.outDir + "/overhead-" + std::to_string(::getpid()) + ".sock";
    PathRun inproc, isolated;
    {
        TRACE_SPAN("layer.serve.roundtrip");
        inproc = runServed(sock, 1, false, 1, jobs, order);
    }
    {
        TRACE_SPAN("layer.fleet.roundtrip");
        isolated = runServed(sock, 1, true, 1, jobs, order);
    }
    check(inproc);
    check(isolated);
    ServeOverheads o;
    const double inprocMs = secondRoundP50(inproc.rttMs);
    o.serveUs = (inprocMs - secondRoundP50(directMs)) * 1e3;
    o.fleetUs = (secondRoundP50(isolated.rttMs) - inprocMs) * 1e3;
    o.busy = inproc.busy + isolated.busy;
    return o;
}

} // namespace

void
runLayers(const Options &opt, Report &rep)
{
    const Kind k = opt.kind;
    const std::vector<SimJob> jobs = probeJobs(k, opt.seed);
    const std::string sock =
        opt.outDir + "/trace-" + std::to_string(::getpid()) + ".sock";

    // Alternating untraced and traced passes of the same fixed job
    // list. Every pass must reproduce the first untraced one exactly;
    // the overhead compares the median walls of the two kinds.
    constexpr unsigned kPasses = 3;
    obs::TraceSink sink(1 << 16);
    PathRun plain;
    std::vector<double> plainWall, tracedWall;
    std::uint64_t busy = 0;
    // The wave whose job.* spans the runjobs metrics read.
    StreamStats waveStats;
    double waveWallS = 0;
    for (unsigned pass = 0; pass < kPasses; ++pass) {
        PathRun u = runPath(k, jobs, sock);
        obs::TraceSink::install(&sink);
        PathRun t = runPath(k, jobs, sock);
        obs::TraceSink::install(nullptr);
        if (pass == 0)
            plain = u;
        const std::uint64_t diff = mismatches(plain.results, u.results) +
                                   mismatches(plain.results, t.results);
        rep.attempted(2 * jobs.size(), diff + u.failed + t.failed);
        if (diff)
            rep.note(std::to_string(diff) +
                     " results differ between passes (traced or not)");
        plainWall.push_back(u.wallS);
        tracedWall.push_back(t.wallS);
        busy += u.busy + t.busy;
        waveStats = t.stats;
        waveWallS += t.wallS;
    }

    // The runJobs lifecycle spans: the workload's own traced waves, or
    // (serve) the in-process reference wave its replies are checked
    // against.
    obs::TraceSink::install(&sink);
    if (k == Kind::Serve) {
        const WaveRun wave = runWave(jobs, false);
        waveStats = wave.stats;
        waveWallS = wave.wallS;
        const std::uint64_t bad = mismatches(wave.results, plain.results);
        rep.attempted(jobs.size(), bad);
        if (bad)
            rep.note(std::to_string(bad) +
                     " served results differ from in-process ones");
    }
    const std::map<std::string, std::vector<double>> jobSpans =
        spanDurations(sink.flushJson());

    // core: Simulator and state_serde, on a seeded sample of the jobs.
    std::vector<std::size_t> sample;
    for (unsigned s = 0; s < sampleSize(k); ++s)
        sample.push_back(mix(opt.seed, 9000 + s) % jobs.size());
    std::vector<double> constructUs, saveMs, restoreMs, bytes;
    double warmS = 0, measS = 0, warmInsts = 0, measInsts = 0,
           measCycles = 0;
    for (std::size_t i : sample) {
        const SimJob &j = jobs[i];
        Clock::time_point t0 = Clock::now();
        SimResults r;
        {
            TRACE_SPAN("layer.sim.construct");
            Simulator sim(j.cfg);
            const double c = secondsSince(t0);
            constructUs.push_back(c * 1e6);
            Clock::time_point t1 = Clock::now();
            {
                TRACE_SPAN("layer.sim.warmup");
                sim.runWarmup();
            }
            const double w = secondsSince(t1);
            t1 = Clock::now();
            {
                TRACE_SPAN("layer.sim.measure");
                r = sim.run();
            }
            const double m = secondsSince(t1);
            warmS += w;
            measS += m;
        }
        r.experiment = j.experiment;
        warmInsts += static_cast<double>(j.cfg.warmupInstructions);
        measInsts += static_cast<double>(r.core.committedInsts);
        measCycles += static_cast<double>(r.core.cycles);
        rep.check(resultBytes(r) == resultBytes(plain.results[i]));

        Simulator warm(j.cfg);
        warm.runWarmup();
        t0 = Clock::now();
        std::string image;
        {
            TRACE_SPAN("layer.snapshot.save");
            image = warm.saveSnapshot();
        }
        saveMs.push_back(secondsSince(t0) * 1e3);
        Simulator fork(j.cfg);
        t0 = Clock::now();
        {
            TRACE_SPAN("layer.snapshot.restore");
            fork.restoreSnapshot(image);
        }
        restoreMs.push_back(secondsSince(t0) * 1e3);
        bytes.push_back(static_cast<double>(image.size()));
        SimResults forked = fork.run();
        forked.experiment = j.experiment;
        rep.check(resultBytes(forked) == resultBytes(plain.results[i]));
    }

    // Component replay over the workload's committed-path streams.
    ReplayTotals rt;
    {
        std::map<std::string, std::uint64_t> seeds;
        for (const SimJob &j : jobs)
            seeds.emplace(j.cfg.benchmark, j.cfg.runSeed);
        for (const auto &[bench, seed] : seeds)
            replayBenchmark(bench, seed, kReplayInsts, rt);
    }

    // job_serde on the workload's own request and reply bytes.
    double parseUs = 0, replyUs = 0;
    {
        std::vector<std::string> frames;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            frames.push_back(requestFrame(jobs[i], i));
            frames.back().pop_back(); // the parser takes the line body
        }
        const unsigned reps =
            std::max<unsigned>(1, 2048 / static_cast<unsigned>(jobs.size()));
        Clock::time_point t0 = Clock::now();
        {
            TRACE_SPAN("layer.job_serde.parse");
            for (unsigned r = 0; r < reps; ++r) {
                for (const std::string &f : frames) {
                    serde::ServeRequest req;
                    rep.check(serde::parseServeRequest(f, req).ok);
                }
            }
        }
        parseUs = secondsSince(t0) * 1e6 / (reps * frames.size());
        std::size_t len = 0;
        t0 = Clock::now();
        {
            TRACE_SPAN("layer.job_serde.result_json");
            for (unsigned r = 0; r < reps; ++r)
                for (std::size_t i = 0; i < jobs.size(); ++i)
                    len += serde::resultRecordToJson(i, plain.results[i])
                               .size();
        }
        replyUs = secondsSince(t0) * 1e6 / (reps * jobs.size());
        g_replaySink = g_replaySink + len;
    }

    const ServeOverheads so = serveOverheads(opt, rep);

    obs::TraceSink::install(nullptr);
    const std::string tracePath = opt.outDir + "/trace-" +
                                  std::string(kindName(k)) + "-" +
                                  std::to_string(opt.seed) + ".json";
    if (!sink.writeFile(tracePath))
        rep.note("could not write " + tracePath);
    else
        std::printf("trace: %s (%llu events, %llu dropped)\n",
                    tracePath.c_str(),
                    static_cast<unsigned long long>(sink.recorded()),
                    static_cast<unsigned long long>(sink.dropped()));

    // dist: untraced, so its in-process wave adds no job.* spans.
    const double dispatchS = dispatchOverhead(opt, rep);

    // ---- report ----------------------------------------------------
    for (const Metric &m : simCounts(plain.results))
        rep.metric(m.name, m.value, m.unit);
    rep.metric("sim.construct_us", median(constructUs), "us");
    rep.metric("sim.warmup_ns_per_inst",
               warmInsts > 0 ? warmS * 1e9 / warmInsts : 0.0, "ns/inst");
    if (warmInsts == 0)
        rep.note("sim.warmup_ns_per_inst absent: the jobs have no warmup");
    rep.metric("sim.measure_ns_per_inst", measS * 1e9 / measInsts,
               "ns/inst");
    rep.metric("sim.measure_ns_per_cycle", measS * 1e9 / measCycles,
               "ns/cycle");

    rep.metric("trace.ns_per_inst", rt.traceS * 1e9 / rt.insts, "ns/inst");
    rep.metric("bpred.ns_per_branch", rt.bpredS * 1e9 / rt.branches,
               "ns/branch");
    rep.metric("confidence.ns_per_branch",
               rt.confS * 1e9 / rt.condBranches, "ns/branch");
    rep.metric("cache.ns_per_access", rt.cacheS * 1e9 / rt.accesses,
               "ns/access");
    rep.metric("power.ns_per_cycle", rt.powerS * 1e9 / rt.cycles,
               "ns/cycle");
    rep.metric("throttle.ns_per_branch",
               rt.throttleS * 1e9 / rt.condBranches, "ns/branch");

    rep.metric("snapshot.save_ms", median(saveMs), "ms");
    rep.metric("snapshot.restore_ms", median(restoreMs), "ms");
    rep.metric("snapshot.bytes", median(bytes), "bytes");

    auto spanMs = [&](const char *name) {
        auto it = jobSpans.find(name);
        return it == jobSpans.end() ? 0.0 : median(it->second) / 1e3;
    };
    auto spanSumS = [&](const char *name) {
        auto it = jobSpans.find(name);
        return it == jobSpans.end()
                   ? 0.0
                   : std::accumulate(it->second.begin(), it->second.end(),
                                     0.0) / 1e6;
    };
    rep.metric("runjobs.queued_ms_p50", spanMs("job.queued"), "ms");
    rep.metric("runjobs.warmup_ms_p50", spanMs("job.warmup"), "ms");
    rep.metric("runjobs.measure_ms_p50", spanMs("job.measure"), "ms");
    const double busyS = spanSumS("job.warmup") + spanSumS("job.measure") +
                         spanSumS("job.commit");
    rep.metric("runjobs.worker_util", busyS / (waveWorkers() * waveWallS),
               "ratio");
    rep.metric("runjobs.warmups_run",
               static_cast<double>(waveStats.warmupsRun), "count");
    rep.metric("runjobs.max_pending",
               static_cast<double>(waveStats.maxPending), "count");

    rep.metric("job_serde.parse_us", parseUs, "us");
    rep.metric("job_serde.result_json_us", replyUs, "us");

    rep.metric("serve.overhead_us", so.serveUs, "us");
    rep.metric("serve.busy_replies",
               static_cast<double>(so.busy + busy),
               "count");
    rep.metric("fleet.isolate_overhead_us", so.fleetUs, "us");
    rep.metric("dist.dispatch_overhead_s", dispatchS, "s");
    rep.metric("obs.trace_overhead_frac",
               median(tracedWall) / median(plainWall) - 1.0, "ratio");
}

} // namespace perfbench
