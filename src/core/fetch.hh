/**
 * @file
 * The fetch frontend both timing models share: the oracle-stream
 * lookahead over the executor, the I-cache/I-TLB probe on block
 * crossings, synthetic wrong-path fetch after a mispredict,
 * JAL/JALR/RAS/BTB prediction, and the recovering state behind the
 * paper's recovery-bubble event (§III, Table I).
 *
 * Each core keeps what differs: its direction predictor (Dir: BHT or
 * TAGE), its rule for a predicted-taken branch that misses in the
 * BTB (FetchParams), the buffer fetch fills, and through the Hooks
 * argument of tick() BOOM's replay queue and fence blocking. tick()
 * raises only the events whose conditions match on both cores and
 * returns a FetchOutcome for the rest, which the caller raises.
 */

#ifndef ICICLE_CORE_FETCH_HH
#define ICICLE_CORE_FETCH_HH

#include <algorithm>
#include <optional>
#include <utility>

#include "bpred/bpred.hh"
#include "core/pipebuf.hh"
#include "isa/executor.hh"
#include "mem/hierarchy.hh"
#include "pmu/event.hh"

namespace icicle
{

/** Frontend geometry and the per-core prediction policy. */
struct FetchParams
{
    u32 fetchWidth = 1;
    u32 bufferEntries = 1; ///< capacity of the buffer fetch fills
    u32 btbEntries = 28;
    u32 blockBytes = 64; ///< L1I block: one probe per block crossing
    /** Cycles from a flush to the frontend fetching again. */
    u32 redirectCycles = 2;
    /**
     * Predicted-taken branch with no BTB target: 0 predicts
     * fall-through; N > 0 has decode resteer to the PC-relative
     * target, an N-cycle bubble.
     */
    u32 decodeResteerCycles = 0;
};

/** What fetch ran into this cycle, for the caller's own events. */
struct FetchOutcome
{
    /** Fetch waits on an I-cache or I-TLB refill. */
    bool icacheBlocked = false;
    /** A JAL missed in the BTB: decode supplies its target. */
    bool jalTargetMiss = false;
};

/**
 * Hooks for a core with no replay queue (uops refetched ahead of the
 * oracle stream) and no per-core packet end: Rocket.
 */
struct PlainFetchHooks
{
    bool replayPending() const { return false; }
    PipeUop replayFront() const { return {}; }
    void popReplay() {}
    bool endsPacket(const PipeUop &) const { return false; }
};

/** The shared fetch frontend; Dir is the direction predictor. */
template <typename Dir>
class FetchStream
{
  public:
    FetchStream(const FetchParams &params, Dir direction, Executor &exec,
                MemHierarchy &mem, EventBus &events)
        : params(params), dir(std::move(direction)),
          btb(params.btbEntries), exec(exec), mem(mem), events(events)
    {
    }

    /** One fetch cycle into `buffer`; nothing is fetched while
     *  a redirect or refill is pending or while `gated`. */
    template <typename Hooks>
    FetchOutcome
    tick(UopRing &buffer, Cycle now, bool gated, Hooks hooks)
    {
        FetchOutcome outcome;
        if (redirectWait > 0) {
            redirectWait--;
        } else if (icacheReadyAt > now) {
            outcome.icacheBlocked = true;
        } else if (!gated && !fetchPacket(buffer, now, hooks, outcome)) {
            // A new I-cache miss: the cycle is not a recovery cycle.
            return outcome;
        }
        // Still recovering: no valid fetch packet was produced.
        if (recovering)
            events.raise(EventId::Recovering);
        return outcome;
    }

    /** Restart fetch after a flush, recovering until a packet
     *  arrives; wrong-path mode is left as it is. */
    void
    refetch()
    {
        recovering = true;
        redirectWait = params.redirectCycles;
        lastFetchBlock = ~0ull;
    }

    /** Back on the correct path (mispredict resolved, fence done). */
    void
    redirect()
    {
        wrongPathMode = false;
        refetch();
    }

    bool isRecovering() const { return recovering; }
    /** The oracle stream ended and fetch is on the correct path. */
    bool exhausted() const { return streamDone && !wrongPathMode; }

  private:
    /** The fetch-packet loop; false if it stopped on an I-cache miss. */
    template <typename Hooks>
    bool
    fetchPacket(UopRing &buffer, Cycle now, Hooks &hooks,
                FetchOutcome &outcome)
    {
        for (u32 slot = 0; slot < params.fetchWidth; slot++) {
            if (buffer.size() >= params.bufferEntries)
                break;

            // Materialize the next instruction to fetch.
            PipeUop uop;
            Addr pc = 0;
            bool from_replay = false;
            if (wrongPathMode) {
                pc = wrongPathPc;
            } else if (hooks.replayPending()) {
                uop = hooks.replayFront();
                pc = uop.ret.pc;
                from_replay = true;
            } else {
                if (streamDone)
                    break;
                if (!streamValid) {
                    if (exec.halted()) {
                        streamDone = true;
                        break;
                    }
                    streamHead = exec.step();
                    streamValid = true;
                }
                pc = streamHead.pc;
            }

            if (!probe(pc, now)) {
                outcome.icacheBlocked = true;
                return false;
            }

            if (wrongPathMode) {
                uop.ret.pc = pc;
                uop.ret.inst.op = Op::Addi; // synthetic wrong-path op
                uop.ret.nextPc = pc + 4;
                uop.flags = uopflag::wrongPath;
                wrongPathPc += 4;
                buffer.pushBack(uop);
                recovering = false;
                continue;
            }

            if (from_replay) {
                hooks.popReplay();
                // Clear stale speculation flags; re-predict below.
                uop.flags &= static_cast<u8>(
                    ~(uopflag::mispredicted | uopflag::targetMispredict));
            } else {
                uop.ret = streamHead;
                streamValid = false;
                if (streamHead.halted)
                    streamDone = true;
            }

            const bool is_cf = uop.ret.isControlFlow();
            if (is_cf)
                predict(uop, outcome);
            buffer.pushBack(uop);
            recovering = false;

            if (hooks.endsPacket(uop))
                break;
            if (is_cf) {
                // A (predicted-)taken control-flow instruction ends
                // the fetch packet and redirects from the F2 stage:
                // the target fetch loses one cycle even on a BTB hit.
                const Addr next = uop.mispredicted() ? uop.predictedNext
                                                     : uop.ret.nextPc;
                if (next != uop.ret.pc + 4) {
                    lastFetchBlock = ~0ull;
                    redirectWait = std::max(redirectWait, 1u);
                    break;
                }
            }
        }
        return true;
    }

    /** I$/I-TLB access on a new block; false on a miss. */
    bool
    probe(Addr pc, Cycle now)
    {
        const u64 block = pc / params.blockBytes;
        if (block == lastFetchBlock)
            return true;
        const MemResult result = mem.fetch(pc);
        if (result.tlbMiss) {
            events.raise(EventId::ITlbMiss);
            if (result.l2TlbMiss)
                events.raise(EventId::L2TlbMiss);
        }
        if (!result.l1Hit || result.tlbMiss) {
            if (!result.l1Hit)
                events.raise(EventId::ICacheMiss);
            icacheReadyAt = now + result.latency;
            return false;
        }
        lastFetchBlock = block;
        return true;
    }

    /** Fetch-time prediction for a control-flow instruction. */
    void
    predict(PipeUop &uop, FetchOutcome &outcome)
    {
        const Retired &ret = uop.ret;
        const Addr pc = ret.pc;
        const Addr fallthrough = pc + 4;
        const InstClass cls = classOf(ret.inst.op);

        Addr predicted = fallthrough;
        if (cls == InstClass::Branch) {
            const bool pred_taken = dir.predictTaken(pc);
            dir.recordOutcome(pred_taken, ret.taken);
            if (pred_taken) {
                const std::optional<Addr> target = btb.lookup(pc);
                if (target) {
                    predicted = *target;
                } else if (params.decodeResteerCycles > 0) {
                    predicted = pc + static_cast<u64>(ret.inst.imm);
                    redirectWait = std::max(redirectWait,
                                            params.decodeResteerCycles);
                }
            }
            // Train: direction immediately (fetch-time structures
            // are trained at resolution in RTL; the single-cycle
            // difference is invisible at event granularity), target
            // on taken.
            dir.update(pc, ret.taken);
            if (ret.taken)
                btb.update(pc, ret.nextPc);
        } else {
            // JALR returns pop the RAS; everything else uses the BTB.
            std::optional<Addr> target;
            if (cls == InstClass::JumpReg && ret.inst.rs1 == reg::ra &&
                ret.inst.rd == reg::zero)
                target = ras.pop();
            if (!target)
                target = btb.lookup(pc);
            if (cls == InstClass::Jump && !target) {
                // JAL target is computed in decode: one frontend
                // bubble, then the correct target -- not a mispredict.
                outcome.jalTargetMiss = true;
                redirectWait = std::max(redirectWait, 1u);
            }
            predicted = target.value_or(
                cls == InstClass::Jump ? ret.nextPc : fallthrough);
            btb.update(pc, ret.nextPc);
            if (ret.inst.rd == reg::ra)
                ras.push(fallthrough);
        }

        uop.predictedNext = predicted;
        if (cls != InstClass::Jump && predicted != ret.nextPc) {
            uop.flags |= uopflag::mispredicted;
            if (cls == InstClass::JumpReg)
                uop.flags |= uopflag::targetMispredict;
            wrongPathMode = true;
            wrongPathPc = predicted;
        }
    }

    const FetchParams params;
    Dir dir;
    Btb btb;
    Ras ras;
    Executor &exec;
    MemHierarchy &mem;
    EventBus &events;

    /** Oracle stream lookahead: next correct-path instruction. */
    bool streamValid = false;
    Retired streamHead;
    bool streamDone = false;
    /** Fetching down the wrong path until the mispredict resolves. */
    bool wrongPathMode = false;
    Addr wrongPathPc = 0;
    /** I-cache refill completes at this cycle. */
    Cycle icacheReadyAt = 0;
    /** Block address of the last fetched instruction. */
    u64 lastFetchBlock = ~0ull;
    /** Recovering: no valid fetch packet delivered since last flush. */
    bool recovering = false;
    /** Cycles the frontend must wait after a redirect. */
    u32 redirectWait = 0;
};

} // namespace icicle

#endif // ICICLE_CORE_FETCH_HH
