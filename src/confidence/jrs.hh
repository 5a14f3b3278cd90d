/**
 * @file
 * JRS confidence estimator (Jacobsen, Rotenberg, Smith, MICRO-29):
 * a table of miss distance counters (MDC). A counter resets on a
 * misprediction and saturates upward on correct predictions; the branch
 * is high-confidence when the counter has reached the MDC threshold.
 * The paper uses an 8 KB table with threshold 12 for Pipeline Gating.
 */

#ifndef STSIM_CONFIDENCE_JRS_HH
#define STSIM_CONFIDENCE_JRS_HH

#include <vector>

#include "common/flat_table.hh"
#include "common/sat_counter.hh"
#include "confidence/estimator.hh"

namespace stsim
{

/** JRS miss-distance-counter estimator (two effective levels). */
class JrsEstimator : public ConfidenceEstimator
{
  public:
    /**
     * @param size_bytes Hardware budget; 2 four-bit MDCs per byte.
     * @param threshold MDC threshold for high confidence (paper: 12).
     */
    explicit JrsEstimator(std::size_t size_bytes, unsigned threshold = 12);

    /** Non-virtual estimate; the devirtualized fetch-stage entry. */
    ConfLevel estimateFast(Addr pc, std::uint64_t hist,
                           const DirectionPredictor::Prediction &dir,
                           bool oracle_correct);

    ConfLevel
    estimate(Addr pc, std::uint64_t hist,
             const DirectionPredictor::Prediction &dir,
             bool oracle_correct) override
    {
        return estimateFast(pc, hist, dir, oracle_correct);
    }
    void update(Addr pc, std::uint64_t hist, bool correct) override;
    std::size_t sizeBytes() const override { return sizeBytes_; }

    unsigned threshold() const { return threshold_; }
    std::size_t numEntries() const { return table_.size(); }

    void saveState(serde::StateWriter &w) const override;
    void loadState(serde::StateReader &r) override;

  private:
    std::size_t index(Addr pc, std::uint64_t hist) const;

    std::size_t sizeBytes_;
    unsigned indexBits_;
    unsigned threshold_;
    FlatTable<SatCounter> table_;
};

} // namespace stsim

#endif // STSIM_CONFIDENCE_JRS_HH
