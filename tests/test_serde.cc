/**
 * @file
 * Serialization-layer tests: serde(parse(serialize(x))) == x for
 * configurations (byte-identical re-serialization plus field checks)
 * and bitwise-equal doubles for SimResults, across every named
 * experiment, custom profiles, deep pipelines and finalized configs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>

#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/simulator.hh"
#include "trace/profile.hh"

using namespace stsim;

namespace
{

/** Bit-pattern equality: distinguishes -0.0 from 0.0, unlike ==. */
void
expectSameBits(double a, double b, const char *what)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << what << ": " << a << " vs " << b;
}

SimConfig
roundTrip(const SimConfig &cfg)
{
    return serde::configFromJson(serde::toJson(cfg));
}

} // namespace

TEST(DoubleHex, RoundTripsAwkwardValues)
{
    for (double d : {0.0, -0.0, 1.0, 0.1 + 0.2, 1.0 / 3.0, 56.4e-9,
                     1.2e9, 5e-324 /* min subnormal */}) {
        expectSameBits(d, serde::doubleFromHex(serde::doubleToHex(d)),
                       "hex round trip");
    }
    // Decimal doubles are accepted too (hand-written manifests).
    EXPECT_EQ(serde::doubleFromHex("1.5"), 1.5);
}

TEST(DoubleHex, FormatterMatchesPrintfByteForByte)
{
    // The hex-float writer is pinned to glibc's "%a": every double on
    // the wire, in a result or in a snapshot must keep its bytes.
    auto check = [](double d) {
        char ref[64];
        std::snprintf(ref, sizeof ref, "%a", d);
        const std::string got = serde::doubleToHex(d);
        const auto bits = std::bit_cast<std::uint64_t>(d);
        ASSERT_EQ(got, ref) << "bits 0x" << std::hex << bits;
        const double back = serde::doubleFromHex(got);
        if (std::isnan(d)) {
            // "%a" drops a NaN's payload; its sign survives.
            ASSERT_TRUE(std::isnan(back)) << got;
            ASSERT_EQ(std::signbit(back), std::signbit(d)) << got;
        } else {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(back), bits) << got;
        }
    };
    using Lim = std::numeric_limits<double>;
    for (double d :
         {0.0, -0.0, Lim::infinity(), -Lim::infinity(), Lim::quiet_NaN(),
          -Lim::quiet_NaN(), Lim::denorm_min(), -Lim::denorm_min(),
          DBL_MIN - Lim::denorm_min() /* largest subnormal */,
          -(DBL_MIN - Lim::denorm_min()), DBL_MIN, -DBL_MIN, DBL_MAX,
          -DBL_MAX, 1.0, 0.1, 1.0 / 3.0}) {
        check(d);
    }
    for (int e = -1074; e <= 1023; ++e) {
        check(std::ldexp(1.0, e));
        check(-std::ldexp(1.0, e));
    }
    std::mt19937_64 rng(0x5eed);
    for (int i = 0; i < 1'000'000; ++i) {
        check(std::bit_cast<double>(rng()));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(ConfigSerde, DefaultConfigReserializesByteIdentically)
{
    SimConfig cfg;
    std::string json = serde::toJson(cfg);
    EXPECT_EQ(json, serde::toJson(roundTrip(cfg)));
    EXPECT_EQ(json.find('\n'), std::string::npos) << "must be one line";
}

TEST(ConfigSerde, EveryNamedExperimentRoundTrips)
{
    for (const char *name :
         {"baseline", "oracle-fetch", "oracle-decode", "oracle-select",
          "A1", "A2", "A3", "A4", "A5", "A6", "B1", "B2", "B3", "B4",
          "B5", "B6", "B7", "B8", "C1", "C2", "C3", "C4", "C5", "C6",
          "PG"}) {
        SimConfig cfg;
        Experiment::byName(name).applyTo(cfg);
        SimConfig back = roundTrip(cfg);
        EXPECT_EQ(serde::toJson(cfg), serde::toJson(back)) << name;
        EXPECT_EQ(back.confKind, cfg.confKind) << name;
        EXPECT_EQ(back.specControl.mode, cfg.specControl.mode) << name;
        EXPECT_EQ(back.specControl.policy.name,
                  cfg.specControl.policy.name)
            << name;
        EXPECT_EQ(back.core.oracle, cfg.core.oracle) << name;
    }
}

TEST(ConfigSerde, NonDefaultFieldsSurvive)
{
    SimConfig cfg;
    cfg.benchmark = "twolf";
    cfg.maxInstructions = 123'456;
    cfg.warmupInstructions = 7'890;
    cfg.runSeed = 99;
    cfg.pipelineDepth = 24;
    cfg.bpred.kind = BpredConfig::Kind::Bimodal;
    cfg.bpred.predictorBytes = 64 * 1024;
    cfg.confKind = ConfKind::Jrs;
    cfg.confBytes = 2 * 1024;
    cfg.jrsThreshold = 7;
    cfg.bpruParams.missInc = 4;
    cfg.bpruParams.tagBits = 12;
    cfg.core.ruuSize = 256;
    cfg.core.lsqSize = 128;
    cfg.memory.l2.sizeBytes = 1024 * 1024;
    cfg.memory.memLatency = 42;
    cfg.power.idleFactor = 0.1 + 0.2; // not exactly representable
    cfg.power.setPeak(PUnit::Clock, 19.0625);

    SimConfig back = roundTrip(cfg);
    EXPECT_EQ(serde::toJson(cfg), serde::toJson(back));
    EXPECT_EQ(back.benchmark, "twolf");
    EXPECT_EQ(back.maxInstructions, 123'456u);
    EXPECT_EQ(back.pipelineDepth, 24u);
    EXPECT_EQ(back.bpred.kind, BpredConfig::Kind::Bimodal);
    EXPECT_EQ(back.confKind, ConfKind::Jrs);
    EXPECT_EQ(back.jrsThreshold, 7u);
    EXPECT_EQ(back.core.ruuSize, 256u);
    EXPECT_EQ(back.memory.memLatency, 42u);
    expectSameBits(back.power.idleFactor, cfg.power.idleFactor,
                   "idleFactor");
    expectSameBits(back.power.peak(PUnit::Clock), 19.0625, "peak");
}

TEST(ConfigSerde, CustomProfileRoundTrips)
{
    SimConfig cfg;
    cfg.customProfile = findProfile("gcc");
    cfg.customProfile->name = "gcc-tweaked";
    cfg.customProfile->fracLoop = 0.123456789;
    cfg.customProfile->seed = 7;

    SimConfig back = roundTrip(cfg);
    ASSERT_TRUE(back.customProfile.has_value());
    EXPECT_EQ(back.customProfile->name, "gcc-tweaked");
    EXPECT_EQ(back.customProfile->seed, 7u);
    expectSameBits(back.customProfile->fracLoop, 0.123456789,
                   "fracLoop");
    EXPECT_EQ(serde::toJson(cfg), serde::toJson(back));

    // Absent profile stays absent.
    SimConfig plain;
    EXPECT_FALSE(roundTrip(plain).customProfile.has_value());
}

TEST(ConfigSerde, FinalizedFlagSurvives)
{
    // A finalized config must parse back as finalized, or the power
    // scaling in finalize() would be applied twice downstream.
    SimConfig cfg;
    Experiment::byName("C2").applyTo(cfg);
    cfg.finalize();
    ASSERT_TRUE(cfg.finalized);
    SimConfig back = roundTrip(cfg);
    EXPECT_TRUE(back.finalized);
    EXPECT_EQ(serde::toJson(cfg), serde::toJson(back));
    // finalize() on the parsed copy is the guarded no-op.
    SimConfig twice = back;
    twice.finalize();
    EXPECT_EQ(serde::toJson(twice), serde::toJson(back));
}

TEST(JobSerde, ManifestEntryRoundTrips)
{
    SimJob job;
    job.cfg.benchmark = "parser";
    job.cfg.maxInstructions = 10'000;
    Experiment::byName("A5").applyTo(job.cfg);
    job.experiment = "A5";

    SimJob back = serde::jobFromJson(serde::toJson(job));
    EXPECT_EQ(back.experiment, "A5");
    EXPECT_EQ(back.cfg.benchmark, "parser");
    EXPECT_EQ(serde::toJson(job), serde::toJson(back));
}

TEST(ResultsSerde, SimulatedResultsRoundTripBitwise)
{
    SimConfig cfg;
    cfg.benchmark = "crafty";
    cfg.maxInstructions = 5'000;
    cfg.warmupInstructions = 1'000;
    Experiment::byName("C2").applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    r.experiment = "C2";

    SimResults back = serde::resultsFromJson(serde::toJson(r));
    EXPECT_EQ(back.benchmark, r.benchmark);
    EXPECT_EQ(back.experiment, r.experiment);
    EXPECT_EQ(back.core.cycles, r.core.cycles);
    EXPECT_EQ(back.core.committedInsts, r.core.committedInsts);
    EXPECT_EQ(back.core.fetchThrottled, r.core.fetchThrottled);
    EXPECT_EQ(back.core.noSelectSkips, r.core.noSelectSkips);
    expectSameBits(back.ipc, r.ipc, "ipc");
    expectSameBits(back.seconds, r.seconds, "seconds");
    expectSameBits(back.avgPowerW, r.avgPowerW, "avgPowerW");
    expectSameBits(back.energyJ, r.energyJ, "energyJ");
    expectSameBits(back.edProduct, r.edProduct, "edProduct");
    expectSameBits(back.wastedEnergyJ, r.wastedEnergyJ, "wastedEnergyJ");
    expectSameBits(back.condMissRate, r.condMissRate, "condMissRate");
    expectSameBits(back.spec, r.spec, "spec");
    expectSameBits(back.pvn, r.pvn, "pvn");
    expectSameBits(back.il1MissRate, r.il1MissRate, "il1MissRate");
    expectSameBits(back.dl1MissRate, r.dl1MissRate, "dl1MissRate");
    expectSameBits(back.l2MissRate, r.l2MissRate, "l2MissRate");
    for (std::size_t i = 0; i < kNumPUnits; ++i) {
        expectSameBits(back.unitEnergyJ[i], r.unitEnergyJ[i],
                       "unitEnergyJ");
        expectSameBits(back.unitWastedJ[i], r.unitWastedJ[i],
                       "unitWastedJ");
        expectSameBits(back.unitActivity[i], r.unitActivity[i],
                       "unitActivity");
    }
    EXPECT_EQ(serde::toJson(r), serde::toJson(back));
}

TEST(ResultsSerde, ResultRecordKeepsIndex)
{
    SimResults r;
    r.benchmark = "go";
    r.experiment = "baseline";
    r.ipc = 1.25;
    std::string line = serde::resultRecordToJson(41, r);
    EXPECT_EQ(serde::resultRecordIndex(line), 41u);
    auto [idx, back] = serde::resultRecordFromJson(line);
    EXPECT_EQ(idx, 41u);
    EXPECT_EQ(back.benchmark, "go");
    expectSameBits(back.ipc, 1.25, "ipc");
}

TEST(SerdeDeath, MalformedInputIsFatal)
{
    EXPECT_EXIT(serde::configFromJson("{not json"),
                ::testing::ExitedWithCode(1), "serde");
    EXPECT_EXIT(serde::configFromJson("{}"),
                ::testing::ExitedWithCode(1), "missing key");
    EXPECT_EXIT(serde::resultRecordFromJson("[1,2,3]"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(serde::doubleFromHex("bogus"),
                ::testing::ExitedWithCode(1), "bad double");
}

TEST(SerdeDeath, IntegerTokensKeepStrtoullRules)
{
    // Unsigned fields accept an optional '+' and saturate at 2^64-1;
    // a sign, a fraction or an exponent is rejected with the token.
    SimJob j;
    j.cfg.benchmark = "go";
    const std::string rec = serde::toJson(j);
    const std::string key = "\"maxInstructions\":";
    const std::size_t at = rec.find(key) + key.size();
    auto withMax = [&](const std::string &token) {
        std::string s = rec;
        s.replace(at, s.find(',', at) - at, token);
        return s;
    };
    SimJob out;
    ASSERT_TRUE(serde::parseJob(withMax("+7"), out));
    EXPECT_EQ(out.cfg.maxInstructions, 7u);
    ASSERT_TRUE(serde::parseJob(withMax("18446744073709551616"), out));
    EXPECT_EQ(out.cfg.maxInstructions, UINT64_MAX);
    serde::ParseOutcome p = serde::parseJob(withMax("-1"), out);
    EXPECT_EQ(p.error, "serde: bad integer '-1' (must be unsigned)");
    p = serde::parseJob(withMax("1e5"), out);
    EXPECT_EQ(p.error, "serde: bad integer '1e5'");
    p = serde::parseJob(withMax("+"), out);
    EXPECT_EQ(p.error, "serde: bad integer '+'");
}

TEST(ServeRequestSerde, ManifestRecordParsesWithDefaults)
{
    // A plain manifest line is a valid request: id and deadline
    // default to 0, and the embedded job round-trips intact.
    SimJob j;
    j.cfg.maxInstructions = 8'000;
    j.cfg.benchmark = "go";
    Experiment::byName("baseline").applyTo(j.cfg);
    j.experiment = "baseline";

    serde::ServeRequest req;
    serde::ParseOutcome p = serde::parseServeRequest(serde::toJson(j),
                                                     req);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_FALSE(req.ping);
    EXPECT_EQ(req.id, 0u);
    EXPECT_EQ(req.deadlineMs, 0u);
    EXPECT_EQ(req.job.experiment, "baseline");
    EXPECT_EQ(req.job.cfg.benchmark, "go");
    EXPECT_EQ(req.job.cfg.maxInstructions, 8'000u);
}

TEST(ServeRequestSerde, IdDeadlineAndPingAreExtracted)
{
    SimJob j;
    j.cfg.benchmark = "go";
    Experiment::byName("baseline").applyTo(j.cfg);
    j.experiment = "baseline";
    std::string rec = serde::toJson(j);
    std::string framed =
        "{\"id\":7,\"deadlineMs\":250," + rec.substr(1);

    serde::ServeRequest req;
    serde::ParseOutcome p = serde::parseServeRequest(framed, req);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_FALSE(req.ping);
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.deadlineMs, 250u);

    serde::ServeRequest ping;
    p = serde::parseServeRequest("{\"op\":\"ping\",\"id\":3}", ping);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(ping.ping);
    EXPECT_EQ(ping.id, 3u);
}

TEST(ServeRequestSerde, DeeplyNestedFrameIsRejectedNotACrash)
{
    // The strict parser recurses per nesting level; without a depth
    // cap a ~100KB frame of '[' (well under the line-size cap) would
    // overflow the reader thread's stack -- a SIGSEGV that
    // FatalCaptureScope cannot catch. It must come back as a plain
    // parse error instead.
    serde::ServeRequest req;

    std::string arrays(100'000, '[');
    serde::ParseOutcome p = serde::parseServeRequest(arrays, req);
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("nested"), std::string::npos) << p.error;

    std::string objects;
    for (int i = 0; i < 50'000; ++i)
        objects += "{\"a\":";
    p = serde::parseServeRequest(objects, req);
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("nested"), std::string::npos) << p.error;

    // Sanity: realistic nesting (a full request is ~5 levels deep) is
    // nowhere near the cap.
    SimJob j;
    j.cfg.benchmark = "go";
    Experiment::byName("baseline").applyTo(j.cfg);
    j.experiment = "baseline";
    p = serde::parseServeRequest(serde::toJson(j), req);
    EXPECT_TRUE(p.ok) << p.error;
}

TEST(ServeRequestSerde, GarbageReturnsFalseInsteadOfExiting)
{
    // The whole point of the non-fatal entry point: hostile frames
    // must produce a failed outcome with a message, never a process
    // exit. Every rejection leaves a non-empty diagnostic.
    serde::ServeRequest req;
    for (const char *bad :
         {"", "not json at all", "[1,2,3]", "{\"experiment\":\"x\"}",
          "{\"op\":\"reboot\"}",
          "{\"experiment\":\"baseline\",\"cfg\":{}}",
          "{\"id\":\"seven\",\"experiment\":\"x\",\"cfg\":{}}"}) {
        serde::ParseOutcome p = serde::parseServeRequest(bad, req);
        EXPECT_FALSE(p.ok) << "accepted: " << bad;
        EXPECT_FALSE(p.error.empty()) << "no diagnostic for: " << bad;
    }
}
