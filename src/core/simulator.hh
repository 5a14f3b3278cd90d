/**
 * @file
 * Simulator: owns and wires every subsystem for one run. This is the
 * library's primary entry point.
 *
 * Example:
 * @code
 *   SimConfig cfg;
 *   cfg.benchmark = "go";
 *   cfg.confKind = ConfKind::Bpru;
 *   cfg.specControl.mode = SpecControlMode::Selective;
 *   cfg.specControl.policy = ThrottlePolicy::byName("C2");
 *   SimResults r = Simulator(cfg).run();
 * @endcode
 */

#ifndef STSIM_CORE_SIMULATOR_HH
#define STSIM_CORE_SIMULATOR_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "bpred/bpred_unit.hh"
#include "cache/hierarchy.hh"
#include "confidence/estimator.hh"
#include "core/cancel.hh"
#include "core/sim_config.hh"
#include "core/sim_results.hh"
#include "pipeline/core.hh"
#include "power/power_model.hh"
#include "throttle/controller.hh"
#include "trace/workload.hh"

namespace stsim
{

/** Owns one simulated machine and runs it to completion. */
class Simulator
{
  public:
    explicit Simulator(SimConfig cfg);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Run warmup + measurement; returns the collected results. When
     * @p cancel is non-null it is polled every few thousand cycles
     * (warmup included) and a fired token throws JobCancelled; a null
     * token costs one never-taken branch per tick. This is the
     * one-variant case of runVariants().
     */
    SimResults run(const CancelToken *cancel = nullptr);

    /** Receives variant @p index's results as its run stops. */
    using VariantFn = std::function<void(std::size_t index, SimResults &&)>;

    /**
     * Run (or finish) warmup, then measure every config in @p variants
     * on this one simulated trajectory. Each variant must share this
     * machine's warmup class (warmupClassKey), so variants differ only
     * in run length and power parameters -- and power is a pure
     * observer of the pipeline, so their cycles are the same cycles.
     * Every cycle's recorded activity feeds one power model per
     * distinct power configuration, each starting from this machine's
     * current power accumulators (zero right after warmup, the
     * snapshot's values on a mid-measure fork).
     *
     * Variant k's results are handed to @p onResult at the end of the
     * first tick where committedInsts >= its maxInstructions -- exactly
     * where its own run() would stop -- so they are bitwise identical
     * to a solo run. Calls come in stop order: ascending run length,
     * ties in @p variants order. Cancel polling is as in run(), and the
     * runaway bound is that of the next variant still to stop. An
     * exception from @p onResult ends the run.
     */
    void runVariants(std::span<const SimConfig *const> variants,
                     const VariantFn &onResult,
                     const CancelToken *cancel = nullptr);

    /**
     * Run (or finish) the warmup phase only: train predictors/caches,
     * then reset the event counters exactly as run() would. Afterwards
     * the simulator sits at the first measured cycle -- the natural
     * point to saveSnapshot() and fork measurement sweeps from. No-op
     * when warmup has already completed.
     */
    void runWarmup(const CancelToken *cancel = nullptr);

    /**
     * Serialize the complete machine state (between ticks) into a
     * snapshot image. A fresh Simulator with an equivalent config that
     * restoreSnapshot()s this image and then run()s produces results
     * bitwise identical to an uninterrupted run.
     */
    std::string saveSnapshot() const;

    /**
     * Restore state written by saveSnapshot(). Fatals unless this
     * simulator's warmupClassKey() matches the snapshot's (same
     * benchmark, seed, machine, predictor and throttle config; only
     * the run length and power parameters may differ).
     */
    void restoreSnapshot(std::string_view image);

    /**
     * Canonical identity of the warmup-equivalence class of @p cfg:
     * the finalized config serialized as JSON with the fields that
     * cannot influence post-warmup architectural state masked out --
     * the measured-instruction budget and the power parameters (power
     * is purely observational and its accumulators are zeroed when
     * warmup ends). Two jobs with equal keys may share one warmup
     * snapshot.
     */
    static std::string warmupClassKey(const SimConfig &cfg);

    /** Access the core (tests/diagnostics). */
    Core &core() { return *core_; }
    const SimConfig &config() const { return cfg_; }
    BpredUnit &bpred() { return *bpred_; }
    MemoryHierarchy &memory() { return *memory_; }
    PowerModel &power() { return *power_; }

    /**
     * Shared cache of immutable synthetic programs, keyed by profile
     * name; avoids rebuilding the CFG for every experiment.
     */
    static std::shared_ptr<const StaticProgram>
    programFor(const std::string &benchmark);

  private:
    /** Where the run stands; serialized, so snapshots resume exactly. */
    enum class Phase : std::uint8_t
    {
        Warmup,  ///< still training (or never ticked)
        Measure, ///< stats reset done; measuring
    };

    /** Results of the run so far, power costed by @p power. */
    SimResults collect(const PowerModel &power) const;

    SimConfig cfg_;
    Phase phase_ = Phase::Warmup;
    std::unique_ptr<Workload> workload_;
    std::unique_ptr<BpredUnit> bpred_;
    std::unique_ptr<ConfidenceEstimator> confidence_;
    std::unique_ptr<MemoryHierarchy> memory_;
    std::unique_ptr<PowerModel> power_;
    std::unique_ptr<SpeculationController> controller_;
    std::unique_ptr<Core> core_;
};

} // namespace stsim

#endif // STSIM_CORE_SIMULATOR_HH
