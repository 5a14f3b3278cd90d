/**
 * @file
 * Deterministic mutation fuzz of the JSON front doors: the serve frame
 * parser, the manifest job parser and the result parser. Seeds are
 * real records (every golden manifest line, one serve frame, one
 * result record); mutations are bit flips, truncations, splices,
 * duplicated keys and nesting bombs, driven by a fixed-seed generator
 * for a bounded number of iterations. Invariants:
 *
 *  - nothing aborts: hostile bytes never reach a process exit;
 *  - every rejection is a failed ParseOutcome carrying a message;
 *  - every accepted input re-encodes to bytes that parse back to the
 *    same value (the re-encoding is a fixed point).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/simulator.hh"
#include "core/suites.hh"

using namespace stsim;

namespace
{

constexpr std::uint64_t kSeed = 0x5e7de;
constexpr int kIterations = 20'000;

struct Corpus
{
    std::vector<std::string> jobs;    ///< golden manifest lines
    std::vector<std::string> frames;  ///< serve request frames
    std::vector<std::string> results; ///< result records
};

const Corpus &
corpus()
{
    static const Corpus c = [] {
        Corpus c;
        for (const SimJob &j : suiteJobs("golden"))
            c.jobs.push_back(serde::toJson(j));
        const std::string &rec = c.jobs.front();
        c.frames.push_back("{\"id\":7,\"deadlineMs\":250," + rec.substr(1));
        c.frames.push_back("{\"op\":\"ping\",\"id\":3}");
        SimJob j;
        j.cfg.benchmark = "go";
        j.cfg.maxInstructions = 1'000;
        j.cfg.warmupInstructions = 0;
        Experiment::byName("C2").applyTo(j.cfg);
        SimResults r = Simulator(j.cfg).run();
        r.experiment = "C2";
        c.results.push_back(serde::resultRecordToJson(5, r));
        c.results.push_back(serde::toJson(r));
        return c;
    }();
    return c;
}

class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::size_t below(std::size_t n) { return n ? rng_() % n : 0; }

    /** One to three stacked mutations of @p s; @p other feeds splices. */
    std::string
    mutate(std::string s, const std::string &other)
    {
        for (std::size_t k = 1 + below(3); k > 0; --k) {
            switch (below(6)) {
              case 0: flipBit(s); break;
              case 1: s.resize(below(s.size() + 1)); break;
              case 2: splice(s, other); break;
              case 3: duplicateKey(s); break;
              case 4: nestingBomb(s); break;
              default: replaceToken(s); break;
            }
        }
        return s;
    }

  private:
    void
    flipBit(std::string &s)
    {
        if (!s.empty())
            s[below(s.size())] ^= static_cast<char>(1u << below(8));
    }

    void
    splice(std::string &s, const std::string &other)
    {
        s = s.substr(0, below(s.size() + 1)) +
            other.substr(below(other.size() + 1));
    }

    /** Repeat one `"key":` with a new value right after an opener. */
    void
    duplicateKey(std::string &s)
    {
        std::size_t q = s.find("\":", below(s.size()));
        if (q == std::string::npos || q == 0)
            return;
        std::size_t open = s.rfind('"', q - 1);
        std::size_t at = s.find_first_of("{,", below(s.size()));
        if (open == std::string::npos || at == std::string::npos)
            return;
        static const char *const kValues[] = {
            "0", "1", "18446744073709551616", "-1", "\"x\"", "true",
            "null", "[]", "{}", "\"0x1p+0\"", "1e5", "+7"};
        const std::string dup = s.substr(open, q + 2 - open) +
                                kValues[below(std::size(kValues))];
        if (s[at] == '{')
            s.insert(at + 1, dup + ",");
        else
            s.insert(at, "," + dup);
    }

    void
    nestingBomb(std::string &s)
    {
        static const char *const kOpeners[] = {"[", "{\"a\":", "{\"cfg\":"};
        const std::string open = kOpeners[below(std::size(kOpeners))];
        std::string bomb;
        for (std::size_t n = 1 + below(200); n > 0; --n)
            bomb += open;
        s.insert(below(s.size() + 1), bomb);
    }

    /** Swap one value token for a hostile one. */
    void
    replaceToken(std::string &s)
    {
        std::size_t colon = s.find(':', below(s.size()));
        if (colon == std::string::npos)
            return;
        std::size_t end = s.find_first_of(",}]", colon + 1);
        if (end == std::string::npos)
            end = s.size();
        static const char *const kTokens[] = {
            "\"\"", "\"\\q\"", "\"\\", "-0", "0x10", "\"nan\"", "\"-inf\"",
            "\"0x1p+99999\"", "99999999999999999999", "[1,2", "\"a\\u0000\"",
            "tru", "nul", "\"\\n\\t\\\"\\\\\\/\""};
        s.replace(colon + 1, end - colon - 1,
                  kTokens[below(std::size(kTokens))]);
    }

    std::mt19937_64 rng_;
};

/** Rejections must carry a diagnostic; count acceptances. */
void
checkOutcome(const serde::ParseOutcome &p, const std::string &in,
             std::size_t &accepted)
{
    if (p) {
        ++accepted;
        return;
    }
    ASSERT_FALSE(p.error.empty()) << "no diagnostic for: " << in;
}

void
expectJobFixedPoint(const SimJob &job, const std::string &in)
{
    const std::string once = serde::toJson(job);
    SimJob back;
    serde::ParseOutcome p = serde::parseJob(once, back);
    ASSERT_TRUE(p) << p.error << "\ninput: " << in << "\nre-encoded: "
                   << once;
    ASSERT_EQ(serde::toJson(back), once) << "input: " << in;
}

} // namespace

TEST(SerdeFuzz, SeedsAreAccepted)
{
    const Corpus &c = corpus();
    for (const std::string &s : c.jobs) {
        SimJob j;
        EXPECT_TRUE(serde::parseJob(s, j)) << s;
    }
    for (const std::string &s : c.frames) {
        serde::ServeRequest r;
        EXPECT_TRUE(serde::parseServeRequest(s, r)) << s;
    }
    SimResults r;
    EXPECT_TRUE(serde::parseResults(c.results.back(), r));
}

TEST(SerdeFuzz, ServeRequestParser)
{
    const Corpus &c = corpus();
    std::vector<std::string> seeds = c.frames;
    seeds.insert(seeds.end(), c.jobs.begin(), c.jobs.end());
    Mutator m(kSeed);
    std::size_t accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string in = m.mutate(seeds[m.below(seeds.size())],
                                        seeds[m.below(seeds.size())]);
        serde::ServeRequest req;
        serde::ParseOutcome p = serde::parseServeRequest(in, req);
        checkOutcome(p, in, accepted);
        if (p && !req.ping && !req.health && !req.metrics)
            expectJobFixedPoint(req.job, in);
        if (HasFatalFailure())
            return;
    }
    // The mutations must leave some frames valid, or the fixed-point
    // invariant is never exercised.
    EXPECT_GT(accepted, 0u);
}

TEST(SerdeFuzz, JobParser)
{
    const Corpus &c = corpus();
    Mutator m(kSeed + 1);
    std::size_t accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string in = m.mutate(c.jobs[m.below(c.jobs.size())],
                                        c.jobs[m.below(c.jobs.size())]);
        SimJob job;
        serde::ParseOutcome p = serde::parseJob(in, job);
        checkOutcome(p, in, accepted);
        if (p)
            expectJobFixedPoint(job, in);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(accepted, 0u);
}

TEST(SerdeFuzz, ResultParser)
{
    const Corpus &c = corpus();
    // parseResults takes a bare SimResults; the record form is a
    // splice donor, so its envelope shows up in mutated inputs too.
    const std::string &bare = c.results.back();
    Mutator m(kSeed + 2);
    std::size_t accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string in =
            m.mutate(bare, c.results[m.below(c.results.size())]);
        SimResults r;
        serde::ParseOutcome p = serde::parseResults(in, r);
        checkOutcome(p, in, accepted);
        if (p) {
            const std::string once = serde::toJson(r);
            SimResults back;
            serde::ParseOutcome q = serde::parseResults(once, back);
            ASSERT_TRUE(q) << q.error << "\ninput: " << in;
            ASSERT_EQ(serde::toJson(back), once) << "input: " << in;
        }
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(accepted, 0u);
}
