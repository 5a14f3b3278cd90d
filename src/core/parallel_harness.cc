#include "parallel_harness.hh"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "core/cancel.hh"
#include "core/harness.hh"
#include "core/results_sink.hh"
#include "core/run_pool.hh"
#include "core/simulator.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace stsim
{

namespace
{

/**
 * Reorder-window size: normally a small multiple of the worker count,
 * but pinnable via STSIM_REORDER_WINDOW so tests can force the
 * degenerate window=1 gate and the exact 2*workers boundary.
 */
std::size_t
reorderWindow(std::size_t workers)
{
    if (const char *s = std::getenv("STSIM_REORDER_WINDOW")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(s, &end, 10);
        if (end && *end == '\0' && v >= 1)
            return static_cast<std::size_t>(v);
    }
    return std::max<std::size_t>(std::size_t{2} * workers, 4);
}

/**
 * One warmup-equivalence class of a trajectory wave. On a fromSnapshot
 * wave every class starts Ready on a copy of the caller's snapshot. On a memoized
 * wave its warmup runs exactly once, claimed under the wave mutex by
 * whichever comes first: a warm-ahead item, which runs outside the
 * reorder gate in class first-appearance order, or -- the fallback --
 * a gate-passed trajectory of the class that finds it still Unbuilt.
 * Every trajectory of the class waits for the published snapshot and
 * forks a fresh Simulator from it. A class is only ever claimed by a
 * builder that is already running on a worker, so waiting on it
 * cannot deadlock the pool or the window.
 */
struct WarmupClass
{
    enum class State : std::uint8_t
    {
        Unbuilt,  ///< nobody has claimed the warmup yet
        Building, ///< a warm-ahead item or a trajectory is warming it
        Ready,    ///< snapshot is published
        Aborted,  ///< the builder threw; the wave is aborting
    };

    State state = State::Unbuilt;
    std::string snapshot; ///< what the class's trajectories restore
    std::size_t firstJob = 0;  ///< the job whose config the warmup runs
    std::size_t remaining = 0; ///< jobs whose trajectory has not restored
};

/**
 * The jobs of one work item, which ride a single simulated trajectory:
 * one job on a scratch wave; on a trajectory wave, at most `window`
 * jobs of one class, in submission order, spanning fewer than
 * `lookahead` indices.
 */
struct TrajectoryItem
{
    std::size_t cls = 0;
    std::vector<std::size_t> jobs;
};

} // namespace

StreamStats
runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
        unsigned workers, const CancelToken *cancel)
{
    RunOptions opts;
    opts.workers = workers;
    opts.cancel = cancel;
    return runJobs(jobs, sink, opts);
}

StreamStats
runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
        const RunOptions &opts)
{
    stsim_assert(!(opts.memoizeWarmup && opts.fromSnapshot),
                 "memoizeWarmup and fromSnapshot are mutually "
                 "exclusive");
    unsigned workers = opts.workers;
    const CancelToken *cancel = opts.cancel;
    const bool memoize = opts.memoizeWarmup;
    const bool shared = memoize || opts.fromSnapshot;
    StreamStats stats;
    if (jobs.empty()) {
        sink.flush();
        return stats;
    }

    // Warm the shared program cache first — one build per distinct
    // benchmark, itself fanned out over the pool — so the job wave
    // never races workers into duplicate StaticProgram builds.
    std::vector<std::string> names;
    for (const SimJob &j : jobs) {
        if (!j.cfg.customProfile &&
            std::find(names.begin(), names.end(), j.cfg.benchmark) ==
                names.end()) {
            names.push_back(j.cfg.benchmark);
        }
    }
    RunPool pool(workers);
    pool.parallelFor(names.size(), [&](std::size_t i) {
        Simulator::programFor(names[i]);
    });

    // In-order streaming commit with a bounded reorder window. A
    // worker may not *start* work whose last job lies `lookahead` or
    // more past the commit frontier, which caps the completed-but-
    // unwritable set at `lookahead` entries however large the wave is.
    // Scratch jobs are single-job work items with lookahead == window.
    // A trajectory item spans fewer than `lookahead` indices, so the
    // item holding the frontier job always passes the gate, the oldest
    // incomplete job is always running and the wave cannot deadlock.
    // One mutex guards the gate, the commit and the classes below.
    std::mutex mu;
    std::condition_variable gate;  // frontier advanced, or wave aborted
    std::condition_variable built; // a class published, or wave aborted
    std::size_t next = 0; // commit frontier (submission order)
    std::map<std::size_t, SimResults> pending;
    bool aborted = false; // a job threw: frontier will never advance
    const std::size_t window = reorderWindow(pool.workers());
    const std::size_t lookahead =
        shared ? window * pool.workers() : window;

    /**
     * A job, warmup or sink threw (caller holds `mu`): the frontier
     * will never advance, so release every worker blocked at the gate
     * or on a class, or pool.wait() would deadlock instead of
     * rethrowing.
     */
    auto abortLocked = [&] {
        aborted = true;
        gate.notify_all();
        built.notify_all();
    };

    /** Wait until job @p last may start; false once the wave aborted. */
    auto passGate = [&](std::size_t last) {
        TRACE_SPAN("job.queued");
        std::unique_lock<std::mutex> lock(mu);
        gate.wait(lock,
                  [&] { return aborted || last < next + lookahead; });
        return !aborted;
    };

    // Lifecycle accounting lives at job granularity: one counter inc
    // or span per job or trajectory, never per instruction, so the
    // engine's hot path is untouched and results cannot be perturbed.
    obs::Counter &memoHits =
        obs::Registry::instance().counter("runjobs.warmup_memo_hits");
    obs::Counter &memoMisses =
        obs::Registry::instance().counter("runjobs.warmup_memo_misses");
    obs::Counter &jobsCompleted =
        obs::Registry::instance().counter("runjobs.jobs_completed");
    obs::Counter &trajectories =
        obs::Registry::instance().counter("runjobs.trajectories");

    /** Hand job @p i's result to the in-order commit. */
    auto commit = [&](std::size_t i, SimResults &&r) {
        r.experiment = jobs[i].experiment;
        TRACE_SPAN("job.commit");
        std::lock_guard<std::mutex> lock(mu);
        if (aborted)
            return;
        jobsCompleted.inc();
        pending.emplace(i, std::move(r));
        stats.maxPending = std::max(stats.maxPending, pending.size());
        while (!pending.empty() && pending.begin()->first == next) {
            // Consume the record before writing, and mark the abort
            // while still holding the lock on a throwing write: no
            // drain (they are serialized under `mu`, which also spares
            // sinks their own locking) can ever re-attempt an index or
            // commit past a failure.
            SimResults out = std::move(pending.begin()->second);
            pending.erase(pending.begin());
            const std::size_t idx = next++;
            gate.notify_all();
            try {
                sink.write(idx, out);
            } catch (...) {
                abortLocked();
                throw; // lock released by unwinding
            }
        }
    };

    // Work items, in submission order of their first job. A scratch
    // wave runs one job per item. A trajectory wave groups its jobs by
    // warmup class up front (the key computation is pure config
    // serialization -- trivial next to a single simulated cycle), then
    // cuts each class into items of up to `window` jobs.
    std::vector<WarmupClass> classes;
    std::vector<TrajectoryItem> items;
    if (!shared) {
        items.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            items.push_back({0, {i}});
    } else {
        std::vector<std::size_t> jobClass(jobs.size(), 0);
        std::map<std::string, std::size_t> byKey;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::string key = Simulator::warmupClassKey(jobs[i].cfg);
            auto [it, inserted] =
                byKey.emplace(std::move(key), classes.size());
            if (inserted) {
                classes.emplace_back();
                classes.back().firstJob = i;
                if (opts.fromSnapshot) {
                    classes.back().snapshot = *opts.fromSnapshot;
                    classes.back().state = WarmupClass::State::Ready;
                }
            }
            jobClass[i] = it->second;
            ++classes[it->second].remaining;
        }
        constexpr std::size_t kNone = ~std::size_t{0};
        std::vector<std::size_t> open(classes.size(), kNone);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::size_t &o = open[jobClass[i]];
            if (o == kNone || items[o].jobs.size() == window ||
                i - items[o].jobs.front() >= lookahead) {
                o = items.size();
                items.push_back({jobClass[i], {}});
            }
            items[o].jobs.push_back(i);
        }
    }

    std::size_t warmCursor = 0; // next class warm-ahead may claim
    std::size_t resident = 0;   // claimed classes with jobs to restore

    /** Warm @p wc (already claimed by the caller) and publish it. */
    auto buildClass = [&](WarmupClass &wc) {
        try {
            TRACE_SPAN("job.warmup");
            if (cancel && cancel->cancelled())
                throw JobCancelled();
            Simulator warm(jobs[wc.firstJob].cfg);
            warm.runWarmup(cancel);
            std::string snap = warm.saveSnapshot();
            std::lock_guard<std::mutex> lock(mu);
            wc.snapshot = std::move(snap);
            wc.state = WarmupClass::State::Ready;
            ++stats.warmupsRun;
            memoMisses.inc();
            built.notify_all();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            wc.state = WarmupClass::State::Aborted;
            abortLocked();
            throw; // surfaces through pool.wait()
        }
    };

    /**
     * Warm classes ahead of need: claim the next Unbuilt class in
     * first-appearance order while fewer than `workers` are resident,
     * so a class-contiguous wave warms its next classes while the
     * current one is still measuring. Warmups commit nothing, so they
     * bypass the reorder gate.
     */
    auto warmAhead = [&] {
        for (;;) {
            WarmupClass *wc = nullptr;
            {
                std::lock_guard<std::mutex> lock(mu);
                while (warmCursor < classes.size() &&
                       classes[warmCursor].state !=
                           WarmupClass::State::Unbuilt) {
                    ++warmCursor;
                }
                if (aborted || warmCursor == classes.size() ||
                    resident >= pool.workers()) {
                    return;
                }
                wc = &classes[warmCursor++];
                wc->state = WarmupClass::State::Building;
                ++resident;
            }
            buildClass(*wc);
        }
    };

    /**
     * Restore @p item's class snapshot into @p sim, building the class
     * first if warm-ahead has not claimed it yet (the fallback).
     * Returns false once the wave has aborted. The last trajectory of
     * a class to restore frees the snapshot and, on a memoized wave,
     * its warm-ahead slot.
     */
    auto restoreClass = [&](const TrajectoryItem &item, Simulator &sim) {
        WarmupClass &wc = classes[item.cls];
        {
            std::unique_lock<std::mutex> lock(mu);
            if (!aborted && wc.state == WarmupClass::State::Unbuilt) {
                wc.state = WarmupClass::State::Building;
                ++resident;
                lock.unlock();
                buildClass(wc);
                lock.lock();
            }
            built.wait(lock, [&] {
                return aborted || wc.state == WarmupClass::State::Ready;
            });
            if (aborted)
                return false;
        }
        // The snapshot is stable here: only the last restore of the
        // class frees it, and that cannot happen before this one.
        sim.restoreSnapshot(wc.snapshot);
        std::lock_guard<std::mutex> lock(mu);
        wc.remaining -= item.jobs.size();
        const bool last = wc.remaining == 0;
        if (last) {
            wc.snapshot.clear();
            wc.snapshot.shrink_to_fit();
        }
        if (memoize) {
            // Every job the warmup serves but the class's last is a hit.
            memoHits.inc(item.jobs.size() - (last ? 1 : 0));
            if (last)
                --resident;
        }
        return true;
    };

    // Warm-ahead items go first in the pool's FIFO, one per class up to
    // the worker count; after its trajectory, every item refills any
    // slot a finished class has freed.
    if (memoize) {
        const std::size_t ahead =
            std::min<std::size_t>(classes.size(), pool.workers());
        for (std::size_t k = 0; k < ahead; ++k)
            pool.submit(warmAhead);
    }

    for (const TrajectoryItem &item : items) {
        pool.submit([&] {
            if (!passGate(item.jobs.back()))
                return;
            try {
                // The upfront check makes cancellation prompt for items
                // that have not started; the token handed to the run
                // covers the frontier item, which always holds a
                // worker, so a fired token always surfaces.
                if (cancel && cancel->cancelled())
                    throw JobCancelled();
                Simulator sim(jobs[item.jobs.front()].cfg);
                if (shared) {
                    // Every trajectory forks a fresh machine from the
                    // class snapshot and stops each job exactly where
                    // its own run() would, so results are bitwise
                    // identical to scratch.
                    if (!restoreClass(item, sim))
                        return;
                } else {
                    // Warmup and measurement run as two explicit phases
                    // on one machine; runWarmup() is a no-op-if-done
                    // prefix of the run, so this is the same simulation
                    // whether or not anyone is tracing.
                    TRACE_SPAN("job.warmup");
                    sim.runWarmup(cancel);
                }
                std::vector<const SimConfig *> cfgs;
                cfgs.reserve(item.jobs.size());
                for (std::size_t i : item.jobs)
                    cfgs.push_back(&jobs[i].cfg);
                trajectories.inc();
                TRACE_SPAN("job.measure");
                sim.runVariants(
                    cfgs,
                    [&](std::size_t k, SimResults &&r) {
                        commit(item.jobs[k], std::move(r));
                    },
                    cancel);
            } catch (...) {
                // Results of this item past the failure never commit.
                std::lock_guard<std::mutex> lock(mu);
                abortLocked();
                throw; // surfaces through pool.wait()
            }
            if (memoize)
                warmAhead();
        });
    }
    pool.wait();
    sink.flush();
    if (!shared)
        stats.warmupsRun = jobs.size(); // scratch jobs warm themselves
    return stats;
}

namespace
{

/** Commits a wave into a preallocated vector (in-memory callers). */
class VectorSink : public ResultsSink
{
  public:
    explicit VectorSink(std::vector<SimResults> &out) : out_(out) {}

    void
    write(std::uint64_t index, const SimResults &r) override
    {
        out_[index] = r;
    }

  private:
    std::vector<SimResults> &out_;
};

} // namespace

std::vector<SimResults>
runJobs(const std::vector<SimJob> &jobs, unsigned workers)
{
    std::vector<SimResults> results(jobs.size());
    VectorSink sink(results);
    runJobs(jobs, sink, workers);
    return results;
}

std::vector<SimResults>
runJobs(const std::vector<SimJob> &jobs, const RunOptions &opts)
{
    std::vector<SimResults> results(jobs.size());
    VectorSink sink(results);
    runJobs(jobs, sink, opts);
    return results;
}

//
// Harness methods that fan out over the pool (kept here so the
// serial harness core stays free of threading concerns).
//

void
Harness::computeBaselines(unsigned workers)
{
    std::vector<SimJob> jobs;
    std::vector<std::string> missing;
    for (const std::string &b : benchmarks()) {
        if (baselines_.count(b))
            continue;
        SimJob j;
        j.cfg = base_;
        j.cfg.benchmark = b;
        Experiment::byName("baseline").applyTo(j.cfg);
        j.experiment = "baseline";
        jobs.push_back(std::move(j));
        missing.push_back(b);
    }
    std::vector<SimResults> results = runJobs(jobs, workers);
    for (std::size_t i = 0; i < missing.size(); ++i)
        baselines_.emplace(missing[i], std::move(results[i]));
}

std::vector<Harness::SuiteRows>
Harness::runMatrix(const std::vector<Experiment> &exps, unsigned workers)
{
    NullResultsSink sink;
    return runMatrix(exps, sink, workers);
}

std::vector<Harness::SuiteRows>
Harness::runMatrix(const std::vector<Experiment> &exps,
                   ResultsSink &sink, unsigned workers)
{
    computeBaselines(workers);

    const std::vector<std::string> &benches = benchmarks();
    std::vector<SimJob> jobs;
    jobs.reserve(exps.size() * benches.size());
    for (const Experiment &exp : exps) {
        for (const std::string &b : benches) {
            SimJob j;
            j.cfg = base_;
            j.cfg.benchmark = b;
            exp.applyTo(j.cfg);
            j.experiment = exp.name;
            jobs.push_back(std::move(j));
        }
    }

    // Stream full results to the caller's sink while folding each one
    // down to its four relative metrics as it commits — only the small
    // metric tables stay resident, experiment-major, benchmark-minor.
    class MetricsTee : public TeeSink
    {
      public:
        MetricsTee(Harness &h, ResultsSink &inner,
                   const std::vector<std::string> &benches,
                   std::vector<SuiteRows> &tables)
            : TeeSink(inner), h_(h), benches_(benches), tables_(tables)
        {
        }

      protected:
        void
        onResult(std::uint64_t index, const SimResults &r) override
        {
            const std::string &bench = benches_[index % benches_.size()];
            tables_[index / benches_.size()].emplace_back(
                bench, RelativeMetrics::compute(
                           h_.baselines_.at(bench), r));
        }

      private:
        Harness &h_;
        const std::vector<std::string> &benches_;
        std::vector<SuiteRows> &tables_;
    };

    std::vector<SuiteRows> tables(exps.size());
    for (SuiteRows &rows : tables)
        rows.reserve(benches.size() + 1);
    MetricsTee tee(*this, sink, benches, tables);
    runJobs(jobs, tee, workers);

    for (SuiteRows &rows : tables)
        rows.emplace_back("Average", averageMetrics(rows));
    return tables;
}

} // namespace stsim
