#include "sim/scheduler.hh"

namespace tango::sim {

namespace {

/** Greedy-then-oldest. */
class GtoScheduler : public WarpScheduler
{
  public:
    void
    reset(uint32_t) override
    {
        current_ = -1;
    }

    int
    pick(const IssueView &v) override
    {
        if (current_ >= 0 && v.issuable.test(static_cast<uint32_t>(current_)))
            return current_;
        // Oldest issuable: the lowest set age rank.
        const int rank = v.issuableByAge.findFrom(0);
        current_ = rank < 0 ? -1 : static_cast<int>(v.byAge[rank]);
        return current_;
    }

    void
    notifyNoneIssuable() override
    {
        current_ = -1;   // a failed pick() would have stored -1
    }

    void
    notifyRetired(uint32_t slot) override
    {
        if (current_ == static_cast<int>(slot))
            current_ = -1;
    }

  private:
    int current_ = -1;
};

/** Loose round-robin. */
class LrrScheduler : public WarpScheduler
{
  public:
    void
    reset(uint32_t num_slots) override
    {
        n_ = num_slots;
        next_ = 0;
    }

    int
    pick(const IssueView &v) override
    {
        const int i = v.issuable.findCyclic(next_);
        if (i >= 0)
            next_ = (static_cast<uint32_t>(i) + 1) % n_;
        return i;
    }

  private:
    uint32_t n_ = 0;
    uint32_t next_ = 0;
};

/** Two-level: round-robin within a small active set; a warp issuing a
 *  long-latency operation is demoted and the oldest pending warp promoted. */
class TlvScheduler : public WarpScheduler
{
  public:
    static constexpr uint32_t activeSetSize = 8;

    void
    reset(uint32_t num_slots) override
    {
        n_ = num_slots;
        next_ = 0;
        active_.assign(n_);
        for (uint32_t i = 0; i < n_ && i < activeSetSize; i++)
            active_.set(i);
    }

    int
    pick(const IssueView &v) override
    {
        // Round-robin over the active set.
        int i = WarpMask::firstCommon(active_, &v.issuable, next_);
        if (i < 0)
            i = WarpMask::firstCommon(active_, &v.issuable, 0);
        if (i >= 0) {
            next_ = (static_cast<uint32_t>(i) + 1) % n_;
            return i;
        }
        // Active set fully stalled: promote the oldest issuable pending
        // warp (demoting a stalled active one) and issue from it.
        for (int r = v.issuableByAge.findFrom(0); r >= 0;
             r = v.issuableByAge.findFrom(static_cast<uint32_t>(r) + 1)) {
            const uint32_t slot = v.byAge[r];
            if (active_.test(slot))
                continue;
            demoteOne();
            active_.set(slot);
            next_ = (slot + 1) % n_;
            return static_cast<int>(slot);
        }
        return -1;
    }

    void
    notifyLongLatency(uint32_t slot) override
    {
        // Demote; promotion happens lazily in pick().
        if (slot < n_)
            active_.reset(slot);
    }

    void
    notifyRetired(uint32_t slot) override
    {
        if (slot < n_)
            active_.reset(slot);
    }

  private:
    void
    demoteOne()
    {
        if (active_.count() < activeSetSize)
            return;
        // Demote the slot after the RR pointer (round-robin victim).
        const int i = active_.findCyclic(next_);
        if (i >= 0)
            active_.reset(static_cast<uint32_t>(i));
    }

    uint32_t n_ = 0;
    uint32_t next_ = 0;
    WarpMask active_;
};

} // namespace

std::unique_ptr<WarpScheduler>
makeScheduler(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::GTO:
        return std::make_unique<GtoScheduler>();
      case SchedPolicy::LRR:
        return std::make_unique<LrrScheduler>();
      case SchedPolicy::TLV:
        return std::make_unique<TlvScheduler>();
    }
    return std::make_unique<GtoScheduler>();
}

} // namespace tango::sim
