/**
 * @file
 * stsim_perfbench: the measuring half of the repository benchmark
 * (perfbench/run.py builds it and adds the host fingerprint).
 *
 *   stsim_perfbench --workload sweep|fork|serve --seed N --seconds S
 *                   --trace 0|1 --out-dir DIR
 *
 * --trace 0 measures the end-to-end metrics for S seconds; --trace 1
 * runs the per-layer probes and writes a Chrome trace into DIR. The
 * last stdout line is the result object
 * {"correct","attempted","failed","metrics"}. Any failed output check
 * makes the exit status 1.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: stsim_perfbench --workload sweep|fork|serve "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
}

bool
parseSeed(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end && *end == '\0' && end != s && s[0] != '-';
}

bool
parseSeconds(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end && *end == '\0' && end != s && out > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string workload, setupKind, trace = "0";
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--setup-probe")
            setupKind = v;
        else if (flag == "--out-dir")
            opt.outDir = v;
        else if (flag == "--trace" && (v == std::string("0") ||
                                       v == std::string("1")))
            trace = v;
        else if (flag == "--seed" && parseSeed(v, opt.seed))
            haveSeed = true;
        else if (!(flag == "--seconds" && parseSeconds(v, opt.seconds)))
            return usage();
    }
    if (argc % 2 == 0 || opt.outDir.empty())
        return usage();
    std::filesystem::create_directories(opt.outDir);

    if (!setupKind.empty()) {
        Kind k;
        return parseKind(setupKind, k) ? setupProbe(k, opt.outDir) : usage();
    }
    if (!parseKind(workload, opt.kind) || !haveSeed)
        return usage();

    // Library diagnostics (stsim_warn/inform) stay off stdout, whose
    // last line is the result.
    Report rep(opt.kind);
    if (trace == "1")
        runLayers(opt, rep);
    else
        runEndToEnd(opt, rep);
    std::printf("%s\n", rep.json().c_str());
    std::fflush(stdout);
    return rep.failed() == 0 ? 0 : 1;
}
