#include "secure/nda.hh"

#include <iterator>

#include "common/logging.hh"

namespace sb
{

bool
NdaScheme::deferBroadcast(InstHandle /* h */, const DynInst &inst,
                          Cycle /* ready_at */)
{
    if (!inst.isLoad())
        return false;
    if (!coreRef->isSpeculative(inst.seq))
        return false;
    // Data is already in the register file; only the broadcast waits
    // (split data-write / broadcast, Fig. 5b).
    enqueue(Pending{inst.seq, inst.pdst, coreRef->now()});
    return true;
}

void
NdaScheme::enqueue(const Pending &p)
{
    // Results complete nearly in age order, so the slot is almost
    // always at or near the back.
    auto pos = pending.end();
    while (pos != pending.begin() && std::prev(pos)->seq > p.seq)
        --pos;
    pending.insert(pos, p);
}

unsigned
NdaScheme::broadcastBudget() const
{
    return coreRef->config().memPorts;
}

void
NdaScheme::tick()
{
    if (pending.empty())
        return;

    // Broadcast non-speculative results oldest-first, limited to the
    // broadcast-port budget per cycle. Squashed producers cannot be
    // here: every squash erases them by sequence number in onSquash.
    unsigned budget = broadcastBudget();
    const Cycle now = coreRef->now();
    while (budget > 0 && !pending.empty()) {
        const Pending &p = pending.front();
        if (coreRef->isSpeculative(p.seq) || p.readyAt > now)
            break;
        // One broadcast cycle: dependents can be selected next cycle.
        coreRef->scheduleWakeup(p.pdst, now + 1);
        pending.pop_front();
        --budget;
    }
}

Cycle
NdaScheme::nextTimedEvent() const
{
    // A broadcast held only by its readyAt fires once that cycle
    // arrives; one held by the visibility point waits for a busy
    // cycle anyway, so the earliest future readyAt is a safe wakeup.
    const Cycle now = coreRef->now();
    Cycle next = neverCycle;
    for (const Pending &p : pending) {
        if (p.readyAt > now)
            next = std::min(next, p.readyAt);
    }
    return next;
}

void
NdaScheme::onSquash(SeqNum youngest_surviving)
{
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [youngest_surviving](const Pending &p) {
                                     return p.seq > youngest_surviving;
                                 }),
                  pending.end());
}

bool
NdaStrictScheme::deferBroadcast(InstHandle /* h */, const DynInst &inst,
                                Cycle ready_at)
{
    if (inst.pdst == invalidPhysReg)
        return false;
    if (!coreRef->isSpeculative(inst.seq))
        return false;
    enqueue(Pending{inst.seq, inst.pdst, ready_at});
    return true;
}

unsigned
NdaStrictScheme::broadcastBudget() const
{
    // Strict mode defers ALU results too; give it the full issue
    // width of broadcast buses.
    return coreRef->config().issueWidth;
}

} // namespace sb
