/**
 * @file
 * Warp scheduling policies: GTO, LRR and TLV (paper Section IV-F).
 *
 * Each SM cycle the core presents the set of issuable warp slots; the
 * scheduler picks one.  GTO keeps issuing from the same warp until it
 * stalls and then falls back to the oldest warp; LRR rotates; TLV keeps a
 * small active set and swaps out warps that issue long-latency operations.
 */

#ifndef TANGO_SIM_SCHEDULER_HH
#define TANGO_SIM_SCHEDULER_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hh"

namespace tango::sim {

/** A set of warp slots (or age ranks), one bit each, of any size. */
class WarpMask
{
  public:
    /** Resize to @p n bits, all clear. */
    void
    assign(uint32_t n)
    {
        words_.assign((n + 63) / 64, 0);
    }

    void set(uint32_t i) { words_[i >> 6] |= bit(i); }
    void reset(uint32_t i) { words_[i >> 6] &= ~bit(i); }
    bool test(uint32_t i) const { return (words_[i >> 6] & bit(i)) != 0; }

    /** Add every member of @p o (same size). */
    void
    merge(const WarpMask &o)
    {
        for (size_t k = 0; k < words_.size(); k++)
            words_[k] |= o.words_[k];
    }

    /** @return the number of members. */
    uint32_t
    count() const
    {
        uint32_t n = 0;
        for (uint64_t w : words_)
            n += static_cast<uint32_t>(std::popcount(w));
        return n;
    }

    /** @return the lowest member >= @p from, or -1. */
    int
    findFrom(uint32_t from) const
    {
        return firstCommon(*this, nullptr, from);
    }

    /** @return the first member at or after @p from in cyclic order
     *  (wrapping past the top bit to 0), or -1. */
    int
    findCyclic(uint32_t from) const
    {
        const int i = findFrom(from);
        return i >= 0 ? i : findFrom(0);
    }

    /** @return the lowest index >= @p from in both @p a and @p b (all of
     *  @p a when @p b is null), or -1. */
    static int
    firstCommon(const WarpMask &a, const WarpMask *b, uint32_t from)
    {
        for (size_t k = from >> 6; k < a.words_.size(); k++) {
            uint64_t w = a.words_[k] & (b ? b->words_[k] : ~0ULL);
            if (k == (from >> 6))
                w &= ~0ULL << (from & 63);
            if (w)
                return static_cast<int>(k * 64 + std::countr_zero(w));
        }
        return -1;
    }

    /** Remove bit @p i, moving every higher bit down one place (a rank
     *  list losing its element @p i). */
    void
    erase(uint32_t i)
    {
        const size_t k = i >> 6;
        const uint64_t low = words_[k] & (bit(i) - 1);
        words_[k] = low | ((words_[k] >> 1) & ~(bit(i) - 1));
        for (size_t j = k + 1; j < words_.size(); j++) {
            words_[j - 1] |= words_[j] << 63;
            words_[j] >>= 1;
        }
    }

    /** Call @p f on each member in ascending order and clear the set.
     *  @p f must not modify this mask. */
    template <typename F>
    void
    drain(F &&f)
    {
        for (size_t k = 0; k < words_.size(); k++) {
            uint64_t w = words_[k];
            words_[k] = 0;
            while (w) {
                f(static_cast<uint32_t>(k * 64 + std::countr_zero(w)));
                w &= w - 1;
            }
        }
    }

  private:
    static uint64_t bit(uint32_t i) { return 1ULL << (i & 63); }

    std::vector<uint64_t> words_;
};

/** What the core shows a scheduler at each pick. */
struct IssueView
{
    /** Issuable warp slots. */
    const WarpMask &issuable;
    /** The live warp slots, oldest first. */
    const std::vector<uint32_t> &byAge;
    /** Bit r set iff byAge[r] is issuable. */
    const WarpMask &issuableByAge;
};

/** Abstract warp scheduler. */
class WarpScheduler
{
  public:
    virtual ~WarpScheduler() = default;

    /** Resize bookkeeping for @p num_slots warp slots. */
    virtual void reset(uint32_t num_slots) = 0;

    /** @return the slot to issue from, or -1 if none is issuable. */
    virtual int pick(const IssueView &v) = 0;

    /**
     * Inform the scheduler that no slot is issuable this cycle.  Must have
     * exactly the state effect of a pick() call over an empty issuable
     * set; the core calls this instead of pick() when it already knows
     * the answer.
     */
    virtual void notifyNoneIssuable() {}

    /** Inform the scheduler a slot issued a long-latency (memory) op. */
    virtual void notifyLongLatency(uint32_t slot) { (void)slot; }

    /** Inform the scheduler a slot retired. */
    virtual void notifyRetired(uint32_t slot) { (void)slot; }
};

/** @return a scheduler implementing @p policy. */
std::unique_ptr<WarpScheduler> makeScheduler(SchedPolicy policy);

} // namespace tango::sim

#endif // TANGO_SIM_SCHEDULER_HH
