/**
 * @file
 * Tests for the uniform checkpoint API (core/state_serde.hh) and the
 * Simulator snapshot/fork workflow: writer/reader round trips, strict
 * rejection of malformed snapshots, and the headline property -- a
 * simulator forked from a snapshot finishes bitwise identical to one
 * that never stopped.
 */

#include <gtest/gtest.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/results_sink.hh"
#include "core/simulator.hh"
#include "core/state_serde.hh"
#include "obs/metrics.hh"
#include "throttle/policy.hh"

using namespace stsim;

namespace
{

/** Small-but-real config: every subsystem exercised, fast to run. */
SimConfig
smallConfig(const char *experiment)
{
    SimConfig cfg;
    cfg.benchmark = "go";
    cfg.warmupInstructions = 5'000;
    cfg.maxInstructions = 20'000;
    if (std::string(experiment) == "C2") {
        cfg.confKind = ConfKind::Bpru;
        cfg.specControl.mode = SpecControlMode::Selective;
        cfg.specControl.policy = ThrottlePolicy::byName("C2");
    } else if (std::string(experiment) == "PG") {
        cfg.confKind = ConfKind::Jrs;
        cfg.specControl.mode = SpecControlMode::PipelineGating;
        cfg.specControl.gatingThreshold = 2;
    }
    return cfg;
}

/** Bit-exact result identity via the hex-float JSON encoding. */
std::string
fingerprint(const SimResults &r)
{
    return serde::toJson(r);
}

} // namespace

//
// StateWriter / StateReader primitives
//

TEST(StateSerde, ScalarRoundTrip)
{
    serde::StateWriter w;
    w.begin("s");
    w.u64("a", ~0ull);
    w.i64("b", -42);
    w.boolean("c", true);
    w.dbl("d", 0.1);
    w.str("e", "hello world");
    w.end("s");
    std::string img = w.take();

    serde::StateReader r(img);
    r.begin("s");
    EXPECT_EQ(r.u64("a"), ~0ull);
    EXPECT_EQ(r.i64("b"), -42);
    EXPECT_TRUE(r.boolean("c"));
    EXPECT_EQ(r.dbl("d"), 0.1);
    EXPECT_EQ(r.str("e"), "hello world");
    r.end("s");
    r.finish();
}

TEST(StateSerde, ArrayRoundTrip)
{
    const std::uint64_t u[3] = {1, 0, ~0ull};
    const double d[2] = {1.5, -0.0};
    std::vector<std::uint16_t> v{7, 9};

    serde::StateWriter w;
    w.begin("s");
    w.u64Array("u", u, 3);
    w.dblArray("d", d, 2);
    w.u64Vec("v", v);
    w.end("s");
    std::string img = w.take();

    serde::StateReader r(img);
    r.begin("s");
    std::vector<std::uint64_t> ru = r.u64Vec("u");
    ASSERT_EQ(ru.size(), 3u);
    EXPECT_EQ(ru[2], ~0ull);
    std::vector<double> rd = r.dblVec("d");
    ASSERT_EQ(rd.size(), 2u);
    EXPECT_EQ(rd[0], 1.5);
    EXPECT_TRUE(std::signbit(rd[1]));
    std::vector<std::uint64_t> rv = r.u64Vec("v");
    ASSERT_EQ(rv.size(), 2u);
    EXPECT_EQ(rv[1], 9u);
    r.end("s");
    r.finish();
}

TEST(StateSerde, DoubleIsBitExact)
{
    // Values decimal printing would mangle must survive exactly.
    const double vals[] = {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324};
    serde::StateWriter w;
    w.begin("s");
    w.dblArray("v", vals, 4);
    w.end("s");
    std::string img = w.take();
    serde::StateReader r(img);
    r.begin("s");
    std::vector<double> back = r.dblVec("v");
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(back[i], vals[i]) << "index " << i;
    r.end("s");
    r.finish();
}

TEST(StateSerde, WrongKeyIsFatal)
{
    serde::StateWriter w;
    w.begin("s");
    w.u64("a", 1);
    w.end("s");
    std::string img = w.take();

    FatalCaptureScope capture;
    serde::StateReader r(img);
    r.begin("s");
    EXPECT_THROW(r.u64("b"), FatalError);
}

TEST(StateSerde, WrongSectionIsFatal)
{
    serde::StateWriter w;
    w.begin("s");
    w.end("s");
    std::string img = w.take();

    FatalCaptureScope capture;
    serde::StateReader r(img);
    EXPECT_THROW(r.begin("t"), FatalError);
}

TEST(StateSerde, TruncationIsFatal)
{
    serde::StateWriter w;
    w.begin("s");
    w.u64("a", 1);
    w.end("s");
    std::string img = w.take();

    FatalCaptureScope capture;
    // Without the end marker the reader must refuse to finish.
    ASSERT_TRUE(img.size() > 4 &&
                img.compare(img.size() - 4, 4, "end\n") == 0);
    std::string cut = img.substr(0, img.size() - 4);
    serde::StateReader r(cut);
    r.begin("s");
    EXPECT_EQ(r.u64("a"), 1u);
    r.end("s");
    EXPECT_THROW(r.finish(), FatalError);
}

TEST(StateSerde, TrailingGarbageIsFatal)
{
    serde::StateWriter w;
    w.begin("s");
    w.end("s");
    std::string img = w.take() + "junk\n";

    FatalCaptureScope capture;
    serde::StateReader r(img);
    r.begin("s");
    r.end("s");
    EXPECT_THROW(r.finish(), FatalError);
}

TEST(StateSerde, VersionMismatchIsFatal)
{
    FatalCaptureScope capture;
    EXPECT_THROW(serde::StateReader r("stsim-state 999\nend\n"),
                 FatalError);
    EXPECT_THROW(serde::StateReader r("not a snapshot"), FatalError);
}

TEST(StateSerde, ShortArrayIsFatal)
{
    FatalCaptureScope capture;
    serde::StateReader r("stsim-state 1\n[s]\nv 3 1 2\n[/s]\nend\n");
    r.begin("s");
    EXPECT_THROW(r.u64Vec("v"), FatalError);
}

//
// Simulator snapshot / fork
//

TEST(Snapshot, ForkFromWarmupIsBitExact)
{
    for (const char *exp : {"baseline", "C2", "PG"}) {
        SCOPED_TRACE(exp);
        SimConfig cfg = smallConfig(exp);

        SimResults straight = Simulator(cfg).run();

        Simulator warm(cfg);
        warm.runWarmup();
        std::string snap = warm.saveSnapshot();

        Simulator forked(cfg);
        forked.restoreSnapshot(snap);
        SimResults resumed = forked.run();

        EXPECT_EQ(fingerprint(straight), fingerprint(resumed));
    }
}

TEST(Snapshot, MidMeasureSnapshotIsBitExact)
{
    SimConfig cfg = smallConfig("C2");

    Simulator a(cfg);
    a.runWarmup();
    for (int i = 0; i < 1'000; ++i)
        a.core().tick();
    std::string snap = a.saveSnapshot();
    SimResults ra = a.run();

    Simulator b(cfg);
    b.restoreSnapshot(snap);
    SimResults rb = b.run();

    EXPECT_EQ(fingerprint(ra), fingerprint(rb));
}

TEST(Snapshot, MidWarmupSnapshotIsBitExact)
{
    SimConfig cfg = smallConfig("PG");

    Simulator a(cfg);
    for (int i = 0; i < 500; ++i)
        a.core().tick();
    std::string snap = a.saveSnapshot();
    SimResults ra = a.run();

    Simulator b(cfg);
    b.restoreSnapshot(snap);
    SimResults rb = b.run();

    EXPECT_EQ(fingerprint(ra), fingerprint(rb));
}

TEST(Snapshot, SaveLoadSaveIsIdentity)
{
    SimConfig cfg = smallConfig("C2");
    Simulator a(cfg);
    a.runWarmup();
    std::string snap = a.saveSnapshot();

    Simulator b(cfg);
    b.restoreSnapshot(snap);
    EXPECT_EQ(snap, b.saveSnapshot());
}

TEST(Snapshot, FreshMachineOnDirtiedHeapIsIdentical)
{
    // Machine tables are bulk-filled from uninitialized storage, so an
    // entry the fill missed would inherit whatever bytes the allocator
    // hands back. ASan cannot see such a read (and MSan is not
    // available with g++), so build each serve-shaped machine once as
    // is and once on memory just churned with 0xA5-filled blocks of
    // the machine's table sizes: the fresh snapshot image and the run
    // result must not change.
    static constexpr std::size_t kTableBytes[] = {
        393216,        // L2 lines: 16 Ki x 24 B
        65536,         // gshare PHT: 32 Ki x 2 B
        49152, 49152,  // IL1 / DL1 lines, BPRU entries
        32768, 32768,  // BTB entries, JRS counters
        4096, 1024};   // MRU way hints
#ifdef __GLIBC__
    // Keep freed blocks in this process's heap -- no trimming back to
    // the OS, no mmap for table-sized blocks -- so the churn reaches
    // the allocations of the machine built after it.
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
    for (const char *bench : {"go", "gcc", "compress", "twolf"}) {
        for (const char *exp : {"baseline", "C2", "PG"}) {
            SimConfig cfg;
            cfg.benchmark = bench;
            cfg.maxInstructions = 1'000;
            cfg.warmupInstructions = 0;
            Experiment::byName(exp).applyTo(cfg);
            std::string image, result;
            {
                Simulator clean(cfg);
                image = clean.saveSnapshot();
                result = fingerprint(clean.run());
            }

            std::vector<void *> blocks;
            for (std::size_t n : kTableBytes) {
                for (int k = 0; k < 2; ++k) {
                    void *p = std::malloc(n);
                    std::memset(p, 0xA5, n);
                    // Keep the fill: the block is freed unread.
                    asm volatile("" : : "r"(p) : "memory");
                    blocks.push_back(p);
                }
            }
            for (void *p : blocks)
                std::free(p);
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
            // The churn must reach the allocator: the next table-sized
            // block comes back dirty (sanitizer allocators quarantine
            // freed blocks instead).
            auto *probe = static_cast<unsigned char *>(
                std::malloc(kTableBytes[0]));
            EXPECT_EQ(probe[kTableBytes[0] / 2], 0xA5);
            std::free(probe);
#endif

            Simulator dirty(cfg);
            EXPECT_EQ(dirty.saveSnapshot(), image) << bench << "/" << exp;
            EXPECT_EQ(fingerprint(dirty.run()), result)
                << bench << "/" << exp;
        }
    }
}

TEST(Snapshot, ForkMayChangeRunLengthAndPower)
{
    // The class key masks maxInstructions and power, so one warmup
    // serves a sweep over them; the forked short run must equal a
    // straight short run.
    SimConfig warm_cfg = smallConfig("baseline");
    warm_cfg.maxInstructions = 50'000;
    Simulator warm(warm_cfg);
    warm.runWarmup();
    std::string snap = warm.saveSnapshot();

    SimConfig short_cfg = smallConfig("baseline");
    short_cfg.maxInstructions = 10'000;
    short_cfg.power.idleFactor *= 0.5;

    SimResults straight = Simulator(short_cfg).run();
    Simulator forked(short_cfg);
    forked.restoreSnapshot(snap);
    SimResults resumed = forked.run();

    EXPECT_EQ(fingerprint(straight), fingerprint(resumed));
}

TEST(Snapshot, WrongClassIsFatal)
{
    Simulator a(smallConfig("baseline"));
    a.runWarmup();
    std::string snap = a.saveSnapshot();

    SimConfig other = smallConfig("baseline");
    other.runSeed = 1234; // different run: different warmup class
    Simulator b(other);

    FatalCaptureScope capture;
    EXPECT_THROW(b.restoreSnapshot(snap), FatalError);
}

TEST(Snapshot, TruncatedSimulatorSnapshotIsFatal)
{
    SimConfig cfg = smallConfig("baseline");
    Simulator a(cfg);
    a.runWarmup();
    std::string snap = a.saveSnapshot();

    Simulator b(cfg);
    FatalCaptureScope capture;
    EXPECT_THROW(
        b.restoreSnapshot(snap.substr(0, snap.size() / 2)),
        FatalError);
}

namespace
{

/** Collects a wave into a vector (test-local sink). */
class CollectSink : public ResultsSink
{
  public:
    explicit CollectSink(std::vector<SimResults> &out) : out_(out) {}

    void
    write(std::uint64_t index, const SimResults &r) override
    {
        out_[index] = r;
    }

  private:
    std::vector<SimResults> &out_;
};

} // namespace

TEST(Snapshot, MemoizedWaveIsBitwiseIdenticalToScratch)
{
    // A run-length sweep: per (benchmark, experiment) all three run
    // lengths share one warmup class, so the memoized wave must run
    // exactly 4 warmups for 12 jobs -- and still commit byte-identical
    // results.
    std::vector<SimJob> jobs;
    for (const char *b : {"go", "crafty"}) {
        for (const char *exp : {"baseline", "C2"}) {
            for (std::uint64_t n : {8'000u, 12'000u, 16'000u}) {
                SimJob j;
                j.cfg = smallConfig(exp);
                j.cfg.benchmark = b;
                j.cfg.maxInstructions = n;
                j.experiment = exp;
                jobs.push_back(std::move(j));
            }
        }
    }

    std::vector<SimResults> scratch = runJobs(jobs, 3);

    std::vector<SimResults> memo(jobs.size());
    CollectSink sink(memo);
    RunOptions opts;
    opts.workers = 3;
    opts.memoizeWarmup = true;
    StreamStats stats = runJobs(jobs, sink, opts);

    EXPECT_EQ(stats.warmupsRun, 4u);
    ASSERT_EQ(scratch.size(), memo.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(fingerprint(scratch[i]), fingerprint(memo[i]))
            << "job " << i;
}

TEST(Snapshot, MoreClassesThanWorkersWarmEachClassOnce)
{
    // Class-contiguous, the order a nested loop produces: 6 warmup
    // classes x 3 run lengths at 2 workers, so warm-ahead must hand its
    // two slots on as classes finish. Under the production window and
    // the degenerate window 1 the wave runs one warmup per class, its
    // memo counters agree, and every result matches scratch.
    std::vector<SimJob> jobs;
    for (const char *b : {"go", "crafty", "gcc"}) {
        for (const char *exp : {"baseline", "C2"}) {
            for (std::uint64_t n : {6'000u, 8'000u, 10'000u}) {
                SimJob j;
                j.cfg = smallConfig(exp);
                j.cfg.benchmark = b;
                j.cfg.maxInstructions = n;
                j.experiment = exp;
                jobs.push_back(std::move(j));
            }
        }
    }
    const std::size_t kClasses = 6;
    std::vector<SimResults> scratch = runJobs(jobs, 2);

    obs::Counter &hits =
        obs::Registry::instance().counter("runjobs.warmup_memo_hits");
    obs::Counter &misses =
        obs::Registry::instance().counter("runjobs.warmup_memo_misses");
    for (const char *window : {"", "1"}) {
        SCOPED_TRACE(std::string("STSIM_REORDER_WINDOW=") + window);
        if (*window)
            setenv("STSIM_REORDER_WINDOW", window, 1);
        const std::uint64_t hits0 = hits.value();
        const std::uint64_t misses0 = misses.value();

        std::vector<SimResults> memo(jobs.size());
        CollectSink sink(memo);
        RunOptions opts;
        opts.workers = 2;
        opts.memoizeWarmup = true;
        StreamStats stats = runJobs(jobs, sink, opts);
        unsetenv("STSIM_REORDER_WINDOW");

        EXPECT_EQ(stats.warmupsRun, kClasses);
        EXPECT_EQ(misses.value() - misses0, stats.warmupsRun);
        EXPECT_EQ(hits.value() - hits0, jobs.size() - kClasses);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(fingerprint(scratch[i]), fingerprint(memo[i]))
                << "job " << i;
    }
}

namespace
{

/**
 * The run-length and power variants of one warmup class: both gating
 * styles, several idle factors and frequencies, duplicate lengths, and
 * lengths a few instructions apart so that some stop in the same
 * commit group (the same tick) as another.
 */
std::vector<SimJob>
classVariants(const char *bench, const char *exp)
{
    const std::uint64_t lengths[] = {6'000, 6'001, 6'003, 9'000,
                                     6'000, 7'500, 6'002, 9'000};
    std::vector<SimJob> jobs;
    for (std::size_t v = 0; v < std::size(lengths); ++v) {
        SimJob j;
        j.cfg = smallConfig(exp);
        j.cfg.benchmark = bench;
        j.cfg.warmupInstructions = 3'000;
        j.cfg.maxInstructions = lengths[v];
        j.cfg.power.style =
            v % 3 == 1 ? ClockGatingStyle::cc0 : ClockGatingStyle::cc3;
        j.cfg.power.idleFactor = 0.05 + 0.02 * static_cast<double>(v % 4);
        j.cfg.power.frequencyHz =
            1.0e9 + 0.1e9 * static_cast<double>(v % 3);
        j.experiment = exp;
        jobs.push_back(std::move(j));
    }
    return jobs;
}

} // namespace

TEST(Snapshot, TrajectoryVariantsMatchScratch)
{
    // Three warmup classes of 8 power x length variants each. Every
    // trajectory costs its jobs under their own power models and stops
    // each exactly where its solo run stops, so in class-contiguous and
    // in interleaved order, at 1-3 workers, under the production window
    // and window 1, every result equals scratch and each class warms
    // exactly once.
    const std::vector<std::vector<SimJob>> classes = {
        classVariants("go", "baseline"), classVariants("go", "C2"),
        classVariants("crafty", "PG")};
    // Scratch reference per (class, variant).
    std::vector<std::vector<SimResults>> scratch;
    for (const std::vector<SimJob> &c : classes) {
        scratch.emplace_back();
        for (const SimJob &j : c) {
            scratch.back().push_back(Simulator(j.cfg).run());
            scratch.back().back().experiment = j.experiment;
        }
    }
    std::vector<SimJob> contiguous, interleaved;
    std::vector<std::string> contiguousRef, interleavedRef;
    for (std::size_t c = 0; c < classes.size(); ++c) {
        for (std::size_t v = 0; v < classes[c].size(); ++v) {
            contiguous.push_back(classes[c][v]);
            contiguousRef.push_back(fingerprint(scratch[c][v]));
        }
    }
    for (std::size_t v = 0; v < classes[0].size(); ++v) {
        for (std::size_t c = 0; c < classes.size(); ++c) {
            interleaved.push_back(classes[c][v]);
            interleavedRef.push_back(fingerprint(scratch[c][v]));
        }
    }

    // The variant set must really exercise a shared stop: two
    // different lengths that end on the same cycle.
    bool sameTick = false;
    for (std::size_t a = 0; a < scratch[0].size(); ++a)
        for (std::size_t b = 0; b < scratch[0].size(); ++b)
            sameTick |= classes[0][a].cfg.maxInstructions !=
                            classes[0][b].cfg.maxInstructions &&
                        scratch[0][a].core.cycles ==
                            scratch[0][b].core.cycles;
    EXPECT_TRUE(sameTick);

    obs::Counter &hits =
        obs::Registry::instance().counter("runjobs.warmup_memo_hits");
    obs::Counter &misses =
        obs::Registry::instance().counter("runjobs.warmup_memo_misses");
    for (const char *window : {"", "1"}) {
        for (unsigned workers : {1u, 2u, 3u}) {
            for (bool inOrder : {true, false}) {
                SCOPED_TRACE(std::string("STSIM_REORDER_WINDOW=") + window +
                             " workers=" + std::to_string(workers) +
                             (inOrder ? " contiguous" : " interleaved"));
                const std::vector<SimJob> &jobs =
                    inOrder ? contiguous : interleaved;
                const std::vector<std::string> &ref =
                    inOrder ? contiguousRef : interleavedRef;
                if (*window)
                    setenv("STSIM_REORDER_WINDOW", window, 1);
                const std::uint64_t hits0 = hits.value();
                const std::uint64_t misses0 = misses.value();

                std::vector<SimResults> memo(jobs.size());
                CollectSink sink(memo);
                RunOptions opts;
                opts.workers = workers;
                opts.memoizeWarmup = true;
                StreamStats stats = runJobs(jobs, sink, opts);
                unsetenv("STSIM_REORDER_WINDOW");

                EXPECT_EQ(stats.warmupsRun, classes.size());
                EXPECT_EQ(misses.value() - misses0, classes.size());
                EXPECT_EQ(hits.value() - hits0,
                          jobs.size() - classes.size());
                for (std::size_t i = 0; i < jobs.size(); ++i)
                    EXPECT_EQ(ref[i], fingerprint(memo[i])) << "job " << i;
            }
        }
    }
}

TEST(Snapshot, LargeClassHoldsBoundedResults)
{
    // One class of 200 jobs: the wave is cut into trajectories of one
    // reorder window each, and the results held for in-order commit
    // stay within workers x window, whatever the class size. The first
    // job is long, so the other worker runs ahead as far as the gate
    // lets it while the frontier cannot commit.
    std::vector<SimJob> jobs;
    for (std::size_t k = 0; k < 200; ++k) {
        SimJob j;
        j.cfg = smallConfig("baseline");
        j.cfg.warmupInstructions = 2'000;
        j.cfg.maxInstructions =
            k == 0 ? 150'000 : 1'000 + 37 * ((k * 7) % 50);
        j.cfg.power.idleFactor = 0.05 + 0.01 * static_cast<double>(k % 9);
        j.experiment = "baseline";
        jobs.push_back(std::move(j));
    }
    const unsigned workers = 2;
    const std::size_t window = 2 * workers < 4 ? 4 : 2 * workers;

    obs::Counter &trajectories =
        obs::Registry::instance().counter("runjobs.trajectories");
    const std::uint64_t t0 = trajectories.value();
    std::vector<SimResults> memo(jobs.size());
    CollectSink sink(memo);
    RunOptions opts;
    opts.workers = workers;
    opts.memoizeWarmup = true;
    StreamStats stats = runJobs(jobs, sink, opts);

    EXPECT_EQ(stats.warmupsRun, 1u);
    EXPECT_LE(stats.maxPending, workers * window);
    EXPECT_EQ(trajectories.value() - t0, jobs.size() / window);
    for (std::size_t i = 0; i < jobs.size(); i += 23) {
        SimResults r = Simulator(jobs[i].cfg).run();
        r.experiment = jobs[i].experiment;
        EXPECT_EQ(fingerprint(r), fingerprint(memo[i])) << "job " << i;
    }
}

TEST(Snapshot, MidMeasureForkWaveMatchesPerJobRestore)
{
    // A snapshot taken mid-measure carries non-zero power
    // accumulators. Jobs with other power parameters forked from it
    // keep those accumulated values and cost only the remaining cycles
    // under their own parameters -- exactly what a per-job restore +
    // run() does. One job is already past its length at the snapshot
    // and stops without a tick.
    SimConfig cfg = smallConfig("C2");
    cfg.maxInstructions = 30'000;
    Simulator warm(cfg);
    warm.runWarmup();
    for (int i = 0; i < 2'000; ++i)
        warm.core().tick();
    ASSERT_GT(warm.power().totalEnergy(), 0.0);
    const std::uint64_t committed = warm.core().stats().committedInsts;
    ASSERT_GT(committed, 500u);
    const std::string snap = warm.saveSnapshot();

    std::vector<SimJob> jobs;
    const std::uint64_t lengths[] = {committed + 4'000, 500,
                                     committed + 1'000, committed + 4'000,
                                     committed + 1'003};
    for (std::size_t v = 0; v < std::size(lengths); ++v) {
        SimJob j;
        j.cfg = cfg;
        j.cfg.maxInstructions = lengths[v];
        j.cfg.power.idleFactor = 0.04 + 0.03 * static_cast<double>(v);
        j.cfg.power.frequencyHz = 0.9e9 + 0.2e9 * static_cast<double>(v);
        if (v == 3)
            j.cfg.power.style = ClockGatingStyle::cc0;
        j.experiment = "C2";
        jobs.push_back(std::move(j));
    }

    for (unsigned workers : {1u, 3u}) {
        SCOPED_TRACE(workers);
        std::vector<SimResults> forked(jobs.size());
        CollectSink sink(forked);
        RunOptions opts;
        opts.workers = workers;
        opts.fromSnapshot = &snap;
        StreamStats stats = runJobs(jobs, sink, opts);
        EXPECT_EQ(stats.warmupsRun, 0u);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            Simulator one(jobs[i].cfg);
            one.restoreSnapshot(snap);
            SimResults r = one.run();
            r.experiment = jobs[i].experiment;
            EXPECT_EQ(fingerprint(r), fingerprint(forked[i]))
                << "job " << i;
        }
    }
}

TEST(Snapshot, CorruptedFieldIsFatal)
{
    SimConfig cfg = smallConfig("baseline");
    Simulator a(cfg);
    a.runWarmup();
    std::string snap = a.saveSnapshot();

    // Damage a key name somewhere past the header; the strict reader
    // must name the mismatch instead of restoring garbage.
    std::size_t pos = snap.find("\nnext_seq ");
    ASSERT_NE(pos, std::string::npos);
    snap[pos + 1] = 'x';

    Simulator b(cfg);
    FatalCaptureScope capture;
    EXPECT_THROW(b.restoreSnapshot(snap), FatalError);
}
