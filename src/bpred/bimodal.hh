/**
 * @file
 * Bimodal predictor: PC-indexed table of 2-bit counters. Used as a
 * history-free baseline and in tests.
 */

#ifndef STSIM_BPRED_BIMODAL_HH
#define STSIM_BPRED_BIMODAL_HH

#include <vector>

#include "bpred/direction_predictor.hh"
#include "common/flat_table.hh"
#include "common/sat_counter.hh"

namespace stsim
{

/** Bimodal: PHT[pc] of 2-bit saturating counters. */
class Bimodal : public DirectionPredictor
{
  public:
    /** @param size_bytes Budget; 4 two-bit counters per byte. */
    explicit Bimodal(std::size_t size_bytes);

    Prediction predict(Addr pc, std::uint64_t hist) override;
    void update(Addr pc, std::uint64_t hist, bool taken) override;
    std::size_t sizeBytes() const override { return sizeBytes_; }
    unsigned historyBits() const override { return 0; }

    std::size_t numEntries() const { return pht_.size(); }

    void saveState(serde::StateWriter &w) const override;
    void loadState(serde::StateReader &r) override;

  private:
    std::size_t sizeBytes_;
    unsigned indexBits_;
    FlatTable<SatCounter> pht_;
};

} // namespace stsim

#endif // STSIM_BPRED_BIMODAL_HH
