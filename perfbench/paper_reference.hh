/**
 * @file
 * The paper's Figure 5 averages over the 8 Table 2 benchmarks, the
 * reference `paper_err_pp` is measured against. This is the one place
 * the benchmark encodes them.
 */

#ifndef STSIM_PERFBENCH_PAPER_REFERENCE_HH
#define STSIM_PERFBENCH_PAPER_REFERENCE_HH

#include <array>

namespace perfbench
{

/** One configuration's averages, relative to the baseline machine. */
struct PaperCell
{
    const char *experiment;
    double energySavingsPct;
    double edImprovementPct;
    double speedup;
};

/**
 * Figure 5: Selective Throttling C2 (13.5% energy, 8.5% E-D, 0.95
 * speedup) against Pipeline Gating (11.0%, 3.5%, 0.92).
 */
inline constexpr std::array<PaperCell, 2> kFigure5Reference = {{
    {"C2", 13.5, 8.5, 0.95},
    {"PG", 11.0, 3.5, 0.92},
}};

} // namespace perfbench

#endif // STSIM_PERFBENCH_PAPER_REFERENCE_HH
