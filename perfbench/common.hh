/**
 * @file
 * Shared pieces of the stsim end-to-end benchmark: timing and order
 * statistics, the workload scenarios (their job lists are a pure
 * function of the workload seed), the simulated per-layer counts, and
 * the metric report every run prints.
 */

#ifndef STSIM_PERFBENCH_COMMON_HH
#define STSIM_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/parallel_harness.hh"
#include "core/sim_results.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** splitmix64 of (a, b): derives per-wave / per-request run seeds. */
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/** 64-bit FNV-1a; replies are compared through it, not stored. */
std::uint64_t fnv1a(std::string_view s);

/** VmHWM of this process in MB (peak resident set). */
double peakRssMb();

/** The benchmark's three workloads. */
enum class Kind
{
    Sweep, ///< fig5 series x 8 benchmarks, one scratch runJobs wave
    Fork,  ///< memoized-warmup power sweep, class-contiguous order
    Serve, ///< 2 closed-loop clients against an in-process server
};

/** Parse "sweep" / "fork" / "serve"; false when unknown. */
bool parseKind(const std::string &name, Kind &out);
const char *kindName(Kind k);

/** Worker threads of a wave: min(nproc, 4). */
unsigned waveWorkers();

/** Benchmarks a workload runs (program-cache set-up covers these). */
std::vector<std::string> kindBenchmarks(Kind k);

/**
 * Jobs of wave @p wave of a sweep or fork run at workload seed
 * @p seed. Every wave gets its own run seed, so no two waves (and no
 * two workload seeds) simulate the same inputs.
 */
std::vector<stsim::SimJob> waveJobs(Kind k, std::uint64_t seed,
                                    std::uint64_t wave);

/** The serve workload's request @p index as a job. */
stsim::SimJob serveJob(std::uint64_t seed, std::uint64_t index);

/** One request frame: the job's manifest record plus its id. */
std::string requestFrame(const stsim::SimJob &job, std::uint64_t id);

/** Whether a wave runs with memoized warmup (the fork workload). */
inline bool
memoized(Kind k)
{
    return k == Kind::Fork;
}

/** One runJobs wave with min(nproc, 4) workers. */
struct WaveRun
{
    std::vector<stsim::SimResults> results; ///< submission order
    std::vector<double> commitS; ///< each commit, seconds from start
    stsim::StreamStats stats;
    double wallS = 0;
};

WaveRun runWave(const std::vector<stsim::SimJob> &jobs, bool memoize);

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The simulated per-layer counts of a set of results. Pure functions
 * of the simulated machine: they repeat exactly for a seed, and a
 * host-only speedup must leave them identical.
 */
std::vector<Metric> simCounts(const std::vector<stsim::SimResults> &results);

/**
 * Mean |repo - paper| in percentage points over {C2, PG} x {energy
 * savings, E-D improvement}, from the baseline/C2/PG results of the
 * 8 Table 2 benchmarks found in @p jobs/@p results. Prints the
 * per-cell deltas.
 */
double paperErrorPp(const std::vector<stsim::SimJob> &jobs,
                    const std::vector<stsim::SimResults> &results);

/** The canonical result record of a job, for byte comparison. */
std::string resultBytes(const stsim::SimResults &r);

/** Metric lines plus the pass/fail tallies of one benchmark run. */
class Report
{
  public:
    explicit Report(Kind k) : kind_(k) {}

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** A free-form diagnostic line (absent metrics, per-cell deltas). */
    void note(const std::string &text) const;

    /** Count one checked operation, failed or not. */
    void
    check(bool ok)
    {
        ++attempted_;
        if (!ok)
            ++failed_;
    }

    void
    attempted(std::uint64_t n, std::uint64_t failed)
    {
        attempted_ += n;
        failed_ += failed;
    }

    std::uint64_t failed() const { return failed_; }
    std::uint64_t attemptedCount() const { return attempted_; }

    /** The result object: {"correct","attempted","failed","metrics"}. */
    std::string json() const;

  private:
    Kind kind_;
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Command-line options shared by the end-to-end and traced runs. */
struct Options
{
    Kind kind = Kind::Sweep;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string outDir; ///< scratch space inside the checkout
};

/** The end-to-end run (--trace 0). */
void runEndToEnd(const Options &opt, Report &rep);

/** The traced per-layer run (--trace 1). */
void runLayers(const Options &opt, Report &rep);

/** Child mode: do the workload's set-up, print "ready", exit. */
int setupProbe(Kind k, const std::string &outDir);

/**
 * Start @p probes fresh set-up children one after another and return
 * each one's time from spawn to "ready", in seconds.
 */
std::vector<double> measureSetup(Kind k, const std::string &outDir,
                                 unsigned probes);

/**
 * Measured serve traffic: closed-loop clients against a server on
 * @p sockPath. Each client claims the next request index, sends it and
 * waits for the reply. Requests come from @p frame(index); the loop
 * ends after @p limit requests (when non-zero) or at @p deadline.
 */
struct ServeTraffic
{
    std::vector<double> rttMs;            ///< per completed request
    std::vector<std::uint64_t> index;     ///< request index, same order
    std::vector<std::uint64_t> replyHash; ///< fnv1a of the reply line
    std::vector<std::string> replies;     ///< kept only when asked
    std::uint64_t sent = 0;
    std::uint64_t busy = 0;
    std::uint64_t errors = 0; ///< error replies and transport failures
    double wallS = 0;
};

ServeTraffic
driveServe(const std::string &sockPath, unsigned clients,
           const std::function<std::string(std::uint64_t)> &frame,
           std::uint64_t limit, Clock::time_point deadline,
           bool keepReplies);

} // namespace perfbench

#endif // STSIM_PERFBENCH_COMMON_HH
