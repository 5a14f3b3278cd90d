/**
 * @file
 * Parallel experiment engine: turns lists of fully-specified
 * simulation jobs into results using a RunPool. All paths -- the
 * in-memory vector API, the Harness matrix waves, and the sharded
 * stsim_runner -- share one streaming commit path: results are handed
 * to a ResultsSink in submission order as jobs complete, behind a
 * bounded reorder window, so the output is bitwise identical for any
 * worker count and peak memory does not grow with matrix size.
 */

#ifndef STSIM_CORE_PARALLEL_HARNESS_HH
#define STSIM_CORE_PARALLEL_HARNESS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/sim_config.hh"
#include "core/sim_results.hh"

namespace stsim
{

class CancelToken;
class ResultsSink;

/** One fully-specified simulation job. */
struct SimJob
{
    SimConfig cfg;          ///< must already name its benchmark
    std::string experiment; ///< stamped into SimResults::experiment
};

/** Engine diagnostics for one wave. */
struct StreamStats
{
    /**
     * High-water mark of results held for in-order commit. Bounded by
     * the reorder window (a small multiple of the worker count) on a
     * scratch wave, and by workers x window on a memoized or
     * fromSnapshot wave, whose work items are trajectories of up to a
     * window of jobs each -- never by the number of jobs or the size
     * of a class: the "streaming, not accumulating" guarantee a big
     * sweep relies on.
     */
    std::size_t maxPending = 0;

    /**
     * Warmup phases actually executed: the job count on a scratch
     * wave, none on a fromSnapshot wave. With memoization this is the
     * number of distinct warmup-equivalence classes -- at most one
     * warmup per class, which is the memoization win being measured.
     */
    std::size_t warmupsRun = 0;
};

/** Knobs for a runJobs wave. */
struct RunOptions
{
    /** Worker threads; 0 resolves STSIM_JOBS / hardware. */
    unsigned workers = 0;

    /** Cooperative cancellation; may be null. */
    const CancelToken *cancel = nullptr;

    /**
     * Warmup once per warmup-equivalence class
     * (Simulator::warmupClassKey) and fork the class's jobs from the
     * in-memory snapshot. Jobs of one class also share the measured
     * prefix: up to a reorder window of them, close together in
     * submission order, ride one trajectory item -- one restore into a
     * fresh Simulator and one Simulator::runVariants() run that stops
     * each job exactly where its own run() would. A memoized wave is
     * therefore bitwise identical to a scratch wave. Warmups run ahead
     * of the reorder window, in class first-appearance order, for up
     * to `workers` classes at a time; a trajectory whose class nobody
     * has claimed yet warms it itself. Snapshots are reference-counted
     * and freed as soon as the last trajectory of a class has
     * restored.
     */
    bool memoizeWarmup = false;

    /**
     * Fork every job of the wave from this pre-warmed snapshot
     * (Simulator::saveSnapshot image) instead of running its own
     * warmup, on the same trajectory items as memoizeWarmup. All jobs
     * must share the snapshot's warmup class
     * (Simulator::restoreSnapshot fatals otherwise), the pointed-to
     * string must outlive the wave, and the option is mutually
     * exclusive with memoizeWarmup. A snapshot taken mid-measure
     * carries its power accumulators into every job, as a per-job
     * restoreSnapshot() + run() would.
     */
    const std::string *fromSnapshot = nullptr;
};

/**
 * Run every job on a RunPool, committing each result to @p sink in
 * submission order as soon as its contiguous prefix has completed.
 *
 * Each work item (a job, or a trajectory of jobs on a memoized or
 * fromSnapshot wave) constructs its own Simulator, so the only shared
 * state is the read-mostly program cache (internally synchronized).
 * Results are independent of @p workers. Workers that run too far
 * ahead of the in-order commit frontier are paused (bounded reorder
 * window), which caps held results without limiting steady-state
 * parallelism.
 *
 * sink.write() calls are serialized and in submission order;
 * sink.flush() runs once after the last write.
 *
 * When @p cancel is non-null, it is checked before each job starts
 * and polled inside Simulator::run; a fired token makes the wave
 * throw JobCancelled out of this call after releasing every
 * gate-blocked worker (same path as a throwing job or sink). The
 * reorder window can be pinned with STSIM_REORDER_WINDOW (tests).
 *
 * @param workers Worker threads; 0 resolves STSIM_JOBS / hardware.
 */
StreamStats runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
                    unsigned workers = 0,
                    const CancelToken *cancel = nullptr);

/** Full-options form of the streaming engine. */
StreamStats runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
                    const RunOptions &opts);

/**
 * Convenience wrapper over the streaming engine for callers that want
 * the whole wave in memory: returns results in submission order.
 */
std::vector<SimResults> runJobs(const std::vector<SimJob> &jobs,
                                unsigned workers = 0);

/** In-memory wrapper with full options. */
std::vector<SimResults> runJobs(const std::vector<SimJob> &jobs,
                                const RunOptions &opts);

} // namespace stsim

#endif // STSIM_CORE_PARALLEL_HARNESS_HH
