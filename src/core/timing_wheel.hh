/**
 * @file
 * Bucketed timing wheel for the core's event queues.
 *
 * The completion/wakeup events of a cycle-level core all land within
 * a small, configuration-bounded latency horizon (the longest memory
 * round trip plus the longest functional-unit latency). A wheel of
 * power-of-two bucket count larger than that horizon makes push and
 * per-cycle drain O(1) amortized with no comparisons and no per-event
 * heap traffic, replacing the std::priority_queues of the original
 * engine. Events beyond the horizon (possible for scheme-owned
 * deferred broadcasts) spill into a rarely-touched overflow vector.
 *
 * Invariant: bucket[now & mask] only ever holds events due exactly
 * at `now`. drainDue(now) is normally called once per cycle; the
 * clock may also jump forward, but never past nextDue() (the core's
 * quiet-cycle skip): a skipped cycle's bucket is empty, and an
 * overflow event is only wheeled while its cycle is still ahead.
 */

#ifndef SB_CORE_TIMING_WHEEL_HH
#define SB_CORE_TIMING_WHEEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace sb
{

template <typename Event>
class TimingWheel
{
  public:
    /** @param horizon longest push delay expected (rounded up to pow2). */
    explicit TimingWheel(unsigned horizon = 256)
    {
        std::size_t n = 2;
        while (n <= horizon)
            n <<= 1;
        buckets.resize(n);
        occupied.assign((n + 63) / 64, 0);
        mask = n - 1;
    }

    bool empty() const { return liveEvents == 0; }
    std::size_t size() const { return liveEvents; }
    std::size_t bucketCount() const { return buckets.size(); }

    /**
     * Schedule @p ev at cycle @p at. Events at or before @p now are
     * clamped to now + 1, matching the old priority-queue engine
     * where a same-cycle push was drained on the following cycle
     * (the drain for @p now has already run).
     */
    void
    push(Cycle at, Cycle now, Event ev)
    {
        if (at <= now)
            at = now + 1;
        ++liveEvents;
        if (at - now <= mask) {
            place(at, std::move(ev));
        } else {
            overflow.emplace_back(at, std::move(ev));
        }
    }

    /**
     * Invoke @p fn on every event due at @p now, in FIFO push order.
     * @p fn may push new (strictly future) events. Returns whether
     * any event was due.
     */
    template <typename Fn>
    bool
    drainDue(Cycle now, Fn &&fn)
    {
        if (liveEvents == 0)
            return false;
        if (!overflow.empty())
            reapOverflow(now);
        const std::size_t idx = now & mask;
        auto &bucket = buckets[idx];
        if (bucket.empty())
            return false;
        // Handlers push only into other cycles' buckets (delay >= 1),
        // so iterating by index while the wheel grows elsewhere is
        // safe; `bucket` itself cannot be appended to.
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            --liveEvents;
            fn(bucket[i]);
        }
        bucket.clear(); // Keeps capacity: zero steady-state allocation.
        occupied[idx / 64] &= ~(std::uint64_t(1) << (idx % 64));
        return true;
    }

    /**
     * Earliest cycle after @p now with an event due, or neverCycle.
     * Call it once drainDue(@p now) has run. The overflow lane is
     * included: a clock that jumped past an overflow event would
     * never reap it (reapOverflow's unsigned distance wraps).
     */
    Cycle
    nextDue(Cycle now) const
    {
        if (liveEvents == 0)
            return neverCycle;
        Cycle next = neverCycle;
        for (const auto &entry : overflow)
            next = std::min(next, entry.first);
        // Scan the occupancy bitmap circularly from bucket now + 1;
        // bucket now itself was just drained.
        const std::size_t n = buckets.size();
        std::size_t idx = (now + 1) & mask;
        for (std::size_t dist = 0; dist + 1 < n;) {
            const std::size_t span =
                std::min({64 - idx % 64, n - idx, n - 1 - dist});
            std::uint64_t bits = occupied[idx / 64] >> (idx % 64);
            if (span < 64)
                bits &= (std::uint64_t(1) << span) - 1;
            if (bits != 0)
                return std::min(next, now + 1 + dist
                                          + __builtin_ctzll(bits));
            dist += span;
            idx = (idx + span) & mask;
        }
        return next;
    }

    void
    clear()
    {
        for (auto &b : buckets)
            b.clear();
        overflow.clear();
        std::fill(occupied.begin(), occupied.end(), 0);
        liveEvents = 0;
    }

  private:
    /** Move matured overflow events into their wheel buckets. */
    void
    reapOverflow(Cycle now)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < overflow.size(); ++i) {
            auto &entry = overflow[i];
            if (entry.first - now <= mask) {
                // Due this cycle or within the horizon: wheel it.
                place(entry.first, std::move(entry.second));
            } else {
                overflow[kept++] = std::move(entry);
            }
        }
        overflow.resize(kept);
    }

    /** Append @p ev to the bucket of cycle @p at and mark it occupied. */
    void
    place(Cycle at, Event ev)
    {
        const std::size_t idx = at & mask;
        buckets[idx].push_back(std::move(ev));
        occupied[idx / 64] |= std::uint64_t(1) << (idx % 64);
    }

    std::vector<std::vector<Event>> buckets;
    /** One bit per bucket: set while the bucket holds events. */
    std::vector<std::uint64_t> occupied;
    std::vector<std::pair<Cycle, Event>> overflow;
    std::size_t mask = 0;
    std::size_t liveEvents = 0;
};

} // namespace sb

#endif // SB_CORE_TIMING_WHEEL_HH
