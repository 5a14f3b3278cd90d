/**
 * @file
 * The benchmark's workloads and its end-to-end run: job generation
 * from the workload seed, the measured sweep/fork waves and serve
 * traffic, the output-correctness checks, the set-up probes, and the
 * metric report.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "core/experiment.hh"
#include "core/harness.hh"
#include "core/job_serde.hh"
#include "core/results_sink.hh"
#include "core/run_pool.hh"
#include "core/simulator.hh"
#include "paper_reference.hh"
#include "serve/net.hh"
#include "serve/server.hh"

extern char **environ;

using namespace stsim;

namespace perfbench
{

// ---------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

bool
parseKind(const std::string &name, Kind &out)
{
    for (Kind k : {Kind::Sweep, Kind::Fork, Kind::Serve}) {
        if (name == kindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Sweep: return "sweep";
      case Kind::Fork: return "fork";
      case Kind::Serve: return "serve";
    }
    return "?";
}

unsigned
waveWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, 4u);
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

namespace
{

/** Sweep sizing: 220K simulated instructions per job. */
constexpr std::uint64_t kSweepMeasure = 200'000;
constexpr std::uint64_t kSweepWarmup = 20'000;

/** Fork: 4 warmup classes of 24 variants each, long shared warmup. */
const char *const kForkBenchmarks[] = {"go", "gcc", "twolf", "parser"};
constexpr unsigned kForkVariants = 24;
constexpr std::uint64_t kForkWarmup = 300'000;

/** Serve: tiny warmup-free requests cycling through 4 x 3 jobs. */
const char *const kServeBenchmarks[] = {"go", "gcc", "compress",
                                        "twolf"};
const char *const kServePolicies[] = {"baseline", "C2", "PG"};
constexpr std::uint64_t kServeMeasure = 1'000;

SimJob
makeJob(const std::string &bench, const std::string &exp,
        const SimConfig &base)
{
    SimJob j;
    j.cfg = base;
    j.cfg.benchmark = bench;
    Experiment::byName(exp).applyTo(j.cfg);
    j.experiment = exp;
    return j;
}

} // namespace

std::vector<std::string>
kindBenchmarks(Kind k)
{
    switch (k) {
      case Kind::Sweep:
        return Harness::benchmarks();
      case Kind::Fork:
        return {std::begin(kForkBenchmarks), std::end(kForkBenchmarks)};
      case Kind::Serve:
        return {std::begin(kServeBenchmarks), std::end(kServeBenchmarks)};
    }
    return {};
}

std::vector<SimJob>
waveJobs(Kind k, std::uint64_t seed, std::uint64_t wave)
{
    SimConfig base;
    base.runSeed = mix(seed, wave) & 0xffffffffULL;
    std::vector<SimJob> jobs;
    if (k == Kind::Sweep) {
        // The fig5 suite's order: baselines first, then each series
        // member over all benchmarks.
        base.maxInstructions = kSweepMeasure;
        base.warmupInstructions = kSweepWarmup;
        for (const std::string &b : Harness::benchmarks())
            jobs.push_back(makeJob(b, "baseline", base));
        for (const Experiment &e : Experiment::figure5Series())
            for (const std::string &b : Harness::benchmarks())
                jobs.push_back(makeJob(b, e.name, base));
        return jobs;
    }
    // Fork: class-contiguous, the order a nested loop produces. The
    // variants of a class differ only in measured length (a seeded
    // permutation of a fixed set, so every wave simulates the same
    // number of instructions) and in power parameters.
    base.warmupInstructions = kForkWarmup;
    for (const char *b : kForkBenchmarks) {
        const std::uint64_t rot = mix(seed, wave + 1000) % kForkVariants;
        for (unsigned v = 0; v < kForkVariants; ++v) {
            SimJob j = makeJob(b, "C2", base);
            const unsigned slot = (v * 7 + rot) % kForkVariants;
            j.cfg.maxInstructions = 4'000 + 1'000 * slot;
            j.cfg.power.idleFactor = 0.05 + 0.01 * (v % 10);
            j.cfg.power.frequencyHz = 1.0e9 + 0.05e9 * (v % 8);
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

SimJob
serveJob(std::uint64_t seed, std::uint64_t index)
{
    SimConfig base;
    base.warmupInstructions = 0;
    base.maxInstructions = kServeMeasure;
    base.runSeed = mix(seed, index) & 0xffffffffULL;
    const std::size_t nb = std::size(kServeBenchmarks);
    const std::size_t np = std::size(kServePolicies);
    return makeJob(kServeBenchmarks[index % nb],
                   kServePolicies[(index / nb) % np], base);
}

std::string
requestFrame(const SimJob &job, std::uint64_t id)
{
    std::string rec = serde::toJson(job);
    std::string f = "{\"id\":" + std::to_string(id) + ",";
    f.append(rec, 1, rec.size() - 1);
    f.push_back('\n');
    return f;
}

std::string
resultBytes(const SimResults &r)
{
    return serde::resultRecordToJson(0, r);
}

// ---------------------------------------------------------------------
// Simulated per-layer counts and paper fidelity
// ---------------------------------------------------------------------

std::vector<Metric>
simCounts(const std::vector<SimResults> &results)
{
    double cycles = 0, committed = 0, fetched = 0, fetchedWrong = 0,
           squashed = 0, condBranches = 0, condMiss = 0, fetchThr = 0,
           decodeThr = 0, noSelect = 0, energy = 0, wasted = 0, il1 = 0,
           dl1 = 0, l2 = 0, pvn = 0;
    std::size_t withEstimator = 0;
    for (const SimResults &r : results) {
        cycles += static_cast<double>(r.core.cycles);
        committed += static_cast<double>(r.core.committedInsts);
        fetched += static_cast<double>(r.core.fetchedInsts);
        fetchedWrong += static_cast<double>(r.core.fetchedWrongPath);
        squashed += static_cast<double>(r.core.squashedInsts);
        condBranches += static_cast<double>(r.core.committedCondBranches);
        condMiss += static_cast<double>(r.core.condMispredicts);
        fetchThr += static_cast<double>(r.core.fetchThrottled);
        decodeThr += static_cast<double>(r.core.decodeThrottled);
        noSelect += static_cast<double>(r.core.noSelectSkips);
        energy += r.energyJ;
        wasted += r.wastedEnergyJ;
        il1 += r.il1MissRate;
        dl1 += r.dl1MissRate;
        l2 += r.l2MissRate;
        if (r.experiment != "baseline") {
            pvn += r.pvn;
            ++withEstimator;
        }
    }
    const double n = results.empty() ? 1.0 : results.size();
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    return {
        {"pipeline.cycles", cycles, "cycles"},
        {"pipeline.ipc", ratio(committed, cycles), "ratio"},
        {"pipeline.wrong_path_fetch_frac", ratio(fetchedWrong, fetched),
         "ratio"},
        {"pipeline.squashed_insts", squashed, "count"},
        {"bpred.cond_miss_rate", ratio(condMiss, condBranches), "ratio"},
        {"confidence.pvn", ratio(pvn, static_cast<double>(withEstimator)),
         "ratio"},
        {"cache.il1_miss_rate", il1 / n, "ratio"},
        {"cache.dl1_miss_rate", dl1 / n, "ratio"},
        {"cache.l2_miss_rate", l2 / n, "ratio"},
        {"throttle.fetch_throttled_cycles", fetchThr, "cycles"},
        {"throttle.decode_throttled_cycles", decodeThr, "cycles"},
        {"throttle.noselect_skips", noSelect, "count"},
        {"power.energy_j", energy, "J"},
        {"power.wasted_energy_frac", ratio(wasted, energy), "ratio"},
    };
}

double
paperErrorPp(const std::vector<SimJob> &jobs,
             const std::vector<SimResults> &results)
{
    std::map<std::pair<std::string, std::string>, const SimResults *> by;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        by[{jobs[i].cfg.benchmark, jobs[i].experiment}] = &results[i];

    double errSum = 0;
    unsigned cells = 0;
    for (const PaperCell &cell : kFigure5Reference) {
        double energy = 0, ed = 0, speedup = 0;
        unsigned n = 0;
        for (const std::string &b : Harness::benchmarks()) {
            auto base = by.find({b, "baseline"});
            auto exp = by.find({b, cell.experiment});
            if (base == by.end() || exp == by.end())
                continue;
            RelativeMetrics m =
                RelativeMetrics::compute(*base->second, *exp->second);
            energy += m.energySavings;
            ed += m.edImprovement;
            speedup += m.speedup;
            ++n;
        }
        if (n == 0)
            continue;
        energy /= n;
        ed /= n;
        speedup /= n;
        std::printf("paper %s: energy %.2f%% (paper %.1f%%, delta %+.2f "
                    "pp), E-D %.2f%% (paper %.1f%%, delta %+.2f pp), "
                    "speedup %.3f (paper %.2f)\n",
                    cell.experiment, energy, cell.energySavingsPct,
                    energy - cell.energySavingsPct, ed,
                    cell.edImprovementPct, ed - cell.edImprovementPct,
                    speedup, cell.speedup);
        errSum += std::fabs(energy - cell.energySavingsPct) +
                  std::fabs(ed - cell.edImprovementPct);
        cells += 2;
    }
    return cells ? errSum / cells : 0.0;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
    std::printf("metric %s %s %.6g %s\n", kindName(kind_), name.c_str(),
                value, unit.c_str());
}

void
Report::note(const std::string &text) const
{
    std::printf("note %s: %s\n", kindName(kind_), text.c_str());
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
        if (i)
            out += ", ";
        out += "\"" + metrics_[i].name + "\": {\"value\": " + num +
               ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

// ---------------------------------------------------------------------
// Serve traffic
// ---------------------------------------------------------------------

ServeTraffic
driveServe(const std::string &sockPath, unsigned clients,
           const std::function<std::string(std::uint64_t)> &frame,
           std::uint64_t limit, Clock::time_point deadline,
           bool keepReplies)
{
    ServeTraffic out;
    // Reserved, not touched: the per-request records then grow the
    // resident set linearly instead of in reallocation steps.
    constexpr std::size_t kReserve = 1 << 20;
    out.rttMs.reserve(kReserve);
    out.index.reserve(kReserve);
    out.replyHash.reserve(kReserve);
    std::mutex mu;
    std::atomic<std::uint64_t> next{0};
    const Clock::time_point start = Clock::now();

    auto client = [&] {
        std::string err;
        int fd = serve::connectUnix(sockPath, &err);
        if (fd < 0) {
            std::lock_guard<std::mutex> lock(mu);
            ++out.errors;
            return;
        }
        serve::LineReader reader(fd, 16 << 20);
        std::string line;
        while (Clock::now() < deadline) {
            const std::uint64_t i = next.fetch_add(1);
            if (limit && i >= limit)
                break;
            const std::string req = frame(i);
            const Clock::time_point t0 = Clock::now();
            bool ok = serve::sendAll(fd, req, &err) &&
                      reader.next(line) == serve::LineStatus::Line;
            const double ms = secondsSince(t0) * 1e3;
            std::lock_guard<std::mutex> lock(mu);
            ++out.sent;
            if (!ok) {
                ++out.errors;
                break;
            }
            if (line.rfind("{\"index\":", 0) != 0) {
                if (line.find("\"busy\"") != std::string::npos)
                    ++out.busy;
                else
                    ++out.errors;
                continue;
            }
            out.rttMs.push_back(ms);
            out.index.push_back(i);
            out.replyHash.push_back(fnv1a(line));
            if (keepReplies)
                out.replies.push_back(line);
        }
        ::close(fd);
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(client);
    for (std::thread &t : threads)
        t.join();
    out.wallS = secondsSince(start);
    return out;
}

// ---------------------------------------------------------------------
// Set-up probes
// ---------------------------------------------------------------------

int
setupProbe(Kind k, const std::string &outDir)
{
    if (k == Kind::Serve) {
        serve::ServeOptions so;
        so.unixPath = outDir + "/setup-" + std::to_string(::getpid()) +
                      ".sock";
        so.workers = 2;
        serve::SimServer server(so);
        server.start();
        std::string err;
        int fd = serve::connectUnix(so.unixPath, &err);
        std::string pong;
        serve::LineReader reader(fd, 1 << 16);
        bool ok = fd >= 0 &&
                  serve::sendAll(fd, "{\"op\":\"ping\",\"id\":1}\n",
                                 &err) &&
                  reader.next(pong) == serve::LineStatus::Line;
        std::printf(ok ? "ready\n" : "failed\n");
        std::fflush(stdout);
        if (fd >= 0)
            ::close(fd);
        server.beginDrain();
        server.waitDrained();
        ::unlink(so.unixPath.c_str());
        return ok ? 0 : 1;
    }
    // A wave's own set-up: the worker pool and the program cache of
    // every benchmark it runs (runJobs builds them the same way).
    const std::vector<std::string> names = kindBenchmarks(k);
    RunPool pool(waveWorkers());
    pool.parallelFor(names.size(),
                     [&](std::size_t i) { Simulator::programFor(names[i]); });
    std::printf("ready\n");
    std::fflush(stdout);
    return 0;
}

std::vector<double>
measureSetup(Kind k, const std::string &outDir, unsigned probes)
{
    std::vector<double> times;
    for (unsigned p = 0; p < probes; ++p) {
        int fds[2];
        if (::pipe(fds) != 0)
            break;
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
        std::string kind = kindName(k);
        const char *argv[] = {"stsim_perfbench", "--setup-probe",
                              kind.c_str(), "--out-dir", outDir.c_str(),
                              nullptr};
        pid_t pid = -1;
        const Clock::time_point t0 = Clock::now();
        int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                             const_cast<char **>(argv), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        std::string got;
        char buf[64];
        ssize_t n = 0;
        while (rc == 0 && got.find('\n') == std::string::npos &&
               (n = ::read(fds[0], buf, sizeof buf)) > 0)
            got.append(buf, static_cast<std::size_t>(n));
        const double s = secondsSince(t0);
        ::close(fds[0]);
        int status = 0;
        if (rc == 0)
            ::waitpid(pid, &status, 0);
        if (rc != 0 || got.rfind("ready", 0) != 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "perfbench: set-up probe failed\n");
            return {};
        }
        times.push_back(s);
    }
    return times;
}

// ---------------------------------------------------------------------
// End-to-end run
// ---------------------------------------------------------------------

namespace
{

/** Keeps a wave's results and each job's commit time (from start). */
class TimedSink : public ResultsSink
{
  public:
    TimedSink(WaveRun &w, Clock::time_point start) : w_(w), start_(start) {}

    void
    write(std::uint64_t index, const SimResults &r) override
    {
        w_.results[index] = r;
        w_.commitS.push_back(secondsSince(start_));
    }

  private:
    WaveRun &w_;
    Clock::time_point start_;
};

} // namespace

WaveRun
runWave(const std::vector<SimJob> &jobs, bool memoize)
{
    WaveRun w;
    w.results.resize(jobs.size());
    RunOptions ro;
    ro.workers = waveWorkers();
    ro.memoizeWarmup = memoize;
    const Clock::time_point t0 = Clock::now();
    TimedSink sink(w, t0);
    w.stats = runJobs(jobs, sink, ro);
    w.wallS = secondsSince(t0);
    return w;
}

namespace
{

/** The scratch result of @p job, run directly on this thread. */
SimResults
directRun(const SimJob &job)
{
    SimResults r = Simulator(job.cfg).run();
    r.experiment = job.experiment;
    return r;
}

/**
 * paper_err_pp of the model: the baseline/C2/PG jobs of the fig5
 * sweep at its sizing and at the default run seed. Fixed inputs, so
 * the value is the same for every workload and workload seed, and any
 * change in it is a change in the simulated machine.
 */
double
modelPaperError()
{
    SimConfig base;
    base.maxInstructions = kSweepMeasure;
    base.warmupInstructions = kSweepWarmup;
    std::vector<SimJob> jobs;
    for (const char *exp : {"baseline", "C2", "PG"})
        for (const std::string &b : Harness::benchmarks())
            jobs.push_back(makeJob(b, exp, base));
    return paperErrorPp(jobs, runJobs(jobs, waveWorkers()));
}

void
emitCommon(Report &rep, double instPerS, double jobsPerS, double p50Ms,
           double p90Ms, const std::vector<double> &setupS, double rssMb,
           double paperErr)
{
    rep.metric("inst_per_s", instPerS, "inst/s");
    rep.metric("jobs_per_s", jobsPerS, "jobs/s");
    rep.metric("p50_ms", p50Ms, "ms");
    rep.metric("p90_ms", p90Ms, "ms");
    rep.metric("setup_s", median(setupS), "s");
    rep.metric("peak_rss_mb", rssMb, "MB");
    rep.metric("paper_err_pp", paperErr, "pp");
}

void
runWaves(const Options &opt, Report &rep, const std::vector<double> &setupS)
{
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    // Per wave, only scalars and one seeded job/result pair are kept:
    // holding whole waves would grow the resident set with the run
    // length (and so with host speed).
    struct Kept
    {
        SimJob job;
        SimResults result;
    };
    std::vector<Kept> kept;
    std::vector<double> instPerS, jobsPerS, commitMs, wallS;
    std::uint64_t jobs = 0;
    for (std::uint64_t wave = 0; wave == 0 || Clock::now() < end; ++wave) {
        const std::vector<SimJob> wj = waveJobs(opt.kind, opt.seed, wave);
        const WaveRun w = runWave(wj, memoized(opt.kind));
        // Memoized waves simulate each class warmup once.
        std::uint64_t insts =
            w.stats.warmupsRun * wj.front().cfg.warmupInstructions;
        for (const SimJob &j : wj)
            insts += j.cfg.maxInstructions;
        instPerS.push_back(static_cast<double>(insts) / w.wallS);
        jobsPerS.push_back(static_cast<double>(wj.size()) / w.wallS);
        wallS.push_back(w.wallS);
        for (double s : w.commitS)
            commitMs.push_back(s * 1e3);
        const std::size_t i = mix(opt.seed, 7000 + wave) % wj.size();
        kept.push_back({wj[i], w.results[i]});
        jobs += wj.size();
    }
    const double rss = peakRssMb();
    rep.attempted(jobs, 0);
    std::printf("waves %zu, jobs %llu, wave wall median %.4f s\n",
                wallS.size(), static_cast<unsigned long long>(jobs),
                median(wallS));

    // Correctness: seeded picks of the kept jobs must be byte-identical
    // to direct scratch runs (serial Simulator(cfg).run(); for the fork
    // workload that is the non-memoized path).
    for (unsigned s = 0; s < 4; ++s) {
        const Kept &k = kept[mix(opt.seed, 8000 + s) % kept.size()];
        if (resultBytes(directRun(k.job)) != resultBytes(k.result)) {
            rep.note("mismatch: " + k.job.cfg.benchmark + "/" +
                     k.job.experiment + " differs from a direct run");
            rep.attempted(0, 1);
        }
    }

    emitCommon(rep, median(instPerS), median(jobsPerS),
               quantile(commitMs, 0.5), quantile(commitMs, 0.9), setupS,
               rss, modelPaperError());
    rep.note("p50_ms/p90_ms: time from wave start to each result's "
             "in-order commit, over " + std::to_string(commitMs.size()) +
             " results");
}

void
runServe(const Options &opt, Report &rep, const std::vector<double> &setupS)
{
    serve::ServeOptions so;
    so.unixPath =
        opt.outDir + "/serve-" + std::to_string(::getpid()) + ".sock";
    so.workers = 2;
    serve::SimServer server(so);
    server.start();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    ServeTraffic t = driveServe(
        so.unixPath, 2,
        [&](std::uint64_t i) {
            return requestFrame(serveJob(opt.seed, i), i);
        },
        0, deadline, false);
    const double rss = peakRssMb();
    server.beginDrain();
    server.waitDrained();
    ::unlink(so.unixPath.c_str());

    // Every reply must be byte-identical to the in-process result of
    // the same job.
    std::vector<SimJob> jobs;
    jobs.reserve(t.index.size());
    for (std::uint64_t i : t.index)
        jobs.push_back(serveJob(opt.seed, i));
    std::vector<SimResults> ref = runJobs(jobs, waveWorkers());
    std::uint64_t mismatches = 0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        if (fnv1a(serde::resultRecordToJson(t.index[k], ref[k])) !=
            t.replyHash[k])
            ++mismatches;
    }
    rep.attempted(t.sent, mismatches + t.busy + t.errors);
    if (mismatches)
        rep.note(std::to_string(mismatches) +
                 " replies differ from in-process results");
    if (t.busy || t.errors)
        rep.note(std::to_string(t.busy) + " busy, " +
                 std::to_string(t.errors) + " error replies");

    std::uint64_t insts = 0;
    for (const SimJob &j : jobs)
        insts += j.cfg.warmupInstructions + j.cfg.maxInstructions;
    std::printf("requests %llu, window %.3f s\n",
                static_cast<unsigned long long>(t.sent), t.wallS);
    emitCommon(rep, static_cast<double>(insts) / t.wallS,
               static_cast<double>(t.rttMs.size()) / t.wallS,
               quantile(t.rttMs, 0.5), quantile(t.rttMs, 0.9), setupS, rss,
               modelPaperError());
    rep.note("p50_ms/p90_ms: client round trip, over " +
             std::to_string(t.rttMs.size()) + " requests");
}

} // namespace

void
runEndToEnd(const Options &opt, Report &rep)
{
    const std::vector<double> setupS = measureSetup(opt.kind, opt.outDir, 15);
    if (setupS.empty()) {
        rep.attempted(1, 1);
        return;
    }
    if (opt.kind == Kind::Serve)
        runServe(opt, rep, setupS);
    else
        runWaves(opt, rep, setupS);
    char line[96];
    std::snprintf(line, sizeof line, "fail_frac %.6g ratio",
                  rep.attemptedCount()
                      ? static_cast<double>(rep.failed()) /
                            rep.attemptedCount()
                      : 1.0);
    rep.note(line);
}

} // namespace perfbench
