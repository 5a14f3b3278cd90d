/**
 * @file
 * Unit tests for the Wattch-style power model: cc3 scaling, idle
 * floor, energy accumulation, wrong-path attribution, size scaling.
 */

#include <gtest/gtest.h>

#include "power/power_model.hh"
#include "power/power_params.hh"

using namespace stsim;

namespace
{

PowerParams
simpleParams()
{
    PowerParams p;
    p.frequencyHz = 1e9; // 1 ns cycles for easy math
    for (PUnit u : kAllPUnits) {
        p.setPeak(u, 10.0);
        p.setPorts(u, 2.0);
    }
    return p;
}

} // namespace

TEST(PowerModel, IdleCycleBurnsFloor)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.endCycle();
    // 11 units x 10 W x 10% x 1 ns.
    EXPECT_NEAR(pm.totalEnergy(), 11 * 1.0e-9, 1e-12);
    EXPECT_DOUBLE_EQ(pm.wastedEnergy(), 0.0);
}

TEST(PowerModel, FullActivityBurnsPeak)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    for (PUnit u : kAllPUnits) {
        if (u != PUnit::Clock)
            pm.record(u, 2.0); // saturate both ports
    }
    pm.endCycle();
    EXPECT_NEAR(pm.totalEnergy(), 11 * 10.0e-9, 1e-12);
}

TEST(PowerModel, LinearInActivity)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.record(PUnit::Alu, 1.0); // half the ports
    pm.endCycle();
    double alu = pm.unitEnergy(PUnit::Alu);
    // 10 W * (0.1 + 0.9 * 0.5) * 1 ns.
    EXPECT_NEAR(alu, 10.0 * 0.55e-9, 1e-13);
}

TEST(PowerModel, ActivityClampsAtPorts)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.record(PUnit::Alu, 50.0);
    pm.endCycle();
    EXPECT_NEAR(pm.unitEnergy(PUnit::Alu), 10.0e-9, 1e-13);
}

TEST(PowerModel, WrongPathAttribution)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.record(PUnit::Alu, 2.0, 1.0); // half the accesses wrong-path
    pm.endCycle();
    // Wrong path owns half the unit's whole energy this cycle.
    EXPECT_NEAR(pm.unitWastedEnergy(PUnit::Alu),
                pm.unitEnergy(PUnit::Alu) * 0.5, 1e-13);
}

TEST(PowerModel, ClockFollowsMeanActivity)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    for (PUnit u : kAllPUnits)
        if (u != PUnit::Clock)
            pm.record(u, 2.0);
    pm.endCycle();
    // All units saturated -> clock at full tilt too.
    EXPECT_NEAR(pm.unitEnergy(PUnit::Clock), 10.0e-9, 1e-13);
}

TEST(PowerModel, Cc0IgnoresActivity)
{
    PowerParams p = simpleParams();
    p.style = ClockGatingStyle::cc0;
    PowerModel pm(p);
    pm.beginCycle();
    pm.endCycle();
    EXPECT_NEAR(pm.totalEnergy(), 11 * 10.0e-9, 1e-12);
}

TEST(PowerModel, AvgPowerAndSeconds)
{
    PowerModel pm(simpleParams());
    for (int i = 0; i < 1000; ++i) {
        pm.beginCycle();
        pm.endCycle();
    }
    EXPECT_NEAR(pm.seconds(), 1000e-9, 1e-12);
    EXPECT_NEAR(pm.avgPower(), 11.0 * 1.0, 1e-9); // 11 W floor total
}

TEST(PowerModel, ResetStats)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.record(PUnit::Alu, 2.0, 2.0);
    pm.endCycle();
    pm.resetStats();
    EXPECT_EQ(pm.cycles(), 0u);
    EXPECT_DOUBLE_EQ(pm.totalEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(pm.wastedEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(pm.unitEnergy(PUnit::Alu), 0.0);
}

TEST(PowerModel, ObserverMatchesDirectRecording)
{
    // An observer accounts exactly the activity the primary model
    // records, under its own parameters, from copied accumulators: the
    // same doubles as a model the activity was recorded into directly.
    PowerParams other = simpleParams();
    other.style = ClockGatingStyle::cc0;
    other.idleFactor = 0.25;
    other.frequencyHz = 2e9;

    PowerModel primary(simpleParams());
    PowerModel direct(other);
    auto cycle = [](PowerModel &pm, int i) {
        pm.beginCycle();
        if (i % 3)
            pm.record(PUnit::Alu, 1.0 + i % 2, i % 2);
        pm.record(PUnit::ICache, 0.5);
        pm.record(PUnit::ICache, 0.25, 0.25);
        pm.endCycle();
    };
    for (int i = 0; i < 5; ++i) {
        cycle(primary, i);
        cycle(direct, i);
    }

    PowerModel observer(other);
    observer.copyAccumulators(direct);
    primary.addObserver(observer);
    for (int i = 5; i < 20; ++i) {
        cycle(primary, i);
        cycle(direct, i);
    }
    primary.clearObservers();
    cycle(primary, 20); // no longer observed

    EXPECT_EQ(observer.cycles(), direct.cycles());
    EXPECT_EQ(observer.totalEnergy(), direct.totalEnergy());
    EXPECT_EQ(observer.wastedEnergy(), direct.wastedEnergy());
    for (PUnit u : kAllPUnits) {
        EXPECT_EQ(observer.unitEnergy(u), direct.unitEnergy(u))
            << punitName(u);
        EXPECT_EQ(observer.unitWastedEnergy(u), direct.unitWastedEnergy(u))
            << punitName(u);
        EXPECT_EQ(observer.meanActivity(u), direct.meanActivity(u))
            << punitName(u);
    }
    EXPECT_NE(observer.totalEnergy(), primary.totalEnergy());
}

TEST(PowerParams, CalibratedDefaultsArePositive)
{
    PowerParams p = PowerParams::calibratedDefaults();
    double total = 0.0;
    for (PUnit u : kAllPUnits) {
        EXPECT_GT(p.peak(u), 0.0) << punitName(u);
        EXPECT_GT(p.portsOf(u), 0.0) << punitName(u);
        total += p.peak(u);
    }
    EXPECT_GT(total, 56.4); // peaks exceed the average by design
}

TEST(PowerParams, BpredSizeScalingSqrtLaw)
{
    PowerParams p = PowerParams::calibratedDefaults();
    double base = p.peak(PUnit::Bpred);
    p.scaleBpredSize(32 * 1024); // 4x the 8 KB reference
    EXPECT_NEAR(p.peak(PUnit::Bpred), base * 2.0, 1e-9);
}

TEST(PowerParams, CycleSeconds)
{
    PowerParams p = PowerParams::calibratedDefaults();
    EXPECT_NEAR(p.cycleSeconds(), 1.0 / 1.2e9, 1e-18); // 1200 MHz
}

TEST(PowerUnits, NamesMatchTable1)
{
    EXPECT_STREQ(punitName(PUnit::ICache), "icache");
    EXPECT_STREQ(punitName(PUnit::Window), "window");
    EXPECT_STREQ(punitName(PUnit::Clock), "clock");
    EXPECT_EQ(kAllPUnits.size(), kNumPUnits);
}
