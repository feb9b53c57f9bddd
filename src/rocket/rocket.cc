#include "rocket/rocket.hh"

#include "common/logging.hh"

namespace icicle
{

RocketCore::RocketCore(const RocketConfig &config, const Program &program)
    : CoreShell(CoreKind::Rocket, config.counterArch, config.mem, program),
      cfg(config),
      frontend(
          FetchParams{
              .fetchWidth = config.fetchWidth,
              .bufferEntries = config.ibufEntries,
              .btbEntries = config.btbEntries,
              .blockBytes = config.mem.l1i.blockBytes,
              .redirectCycles = config.redirectLatency,
              // Without a BTB entry the frontend cannot redirect at
              // fetch; the effective prediction is not-taken.
              .decodeResteerCycles = 0,
          },
          Bht(config.bhtEntries), exec, mem, events),
      ibuf(config.ibufEntries)
{
    regReady.fill(0);
    regProducer.fill(InstClass::IntAlu);
}

void
RocketCore::raiseRetireClassEvents(const Retired &ret)
{
    events.raise(EventId::InstRetired);
    switch (classOf(ret.inst.op)) {
      case InstClass::Load:
        events.raise(EventId::LoadRetired);
        break;
      case InstClass::Store:
        events.raise(EventId::StoreRetired);
        break;
      case InstClass::Branch:
      case InstClass::Jump:
      case InstClass::JumpReg:
        events.raise(EventId::BranchRetired);
        break;
      case InstClass::Csr:
      case InstClass::System:
        events.raise(EventId::SystemRetired);
        break;
      case InstClass::Fence:
        events.raise(EventId::FenceRetired);
        break;
      default:
        events.raise(EventId::ArithRetired);
        break;
    }
}

void
RocketCore::tickFrontend()
{
    const FetchOutcome outcome =
        frontend.tick(ibuf, now, halted, PlainFetchHooks{});
    // Rocket's I$-blocked: any cycle fetch waits on a refill.
    if (outcome.icacheBlocked)
        events.raise(EventId::ICacheBlocked);
    // Decode-computed JAL target: a 1-cycle fetch stall.
    if (outcome.jalTargetMiss)
        events.raise(EventId::CtrlFlowInterlock);
}

void
RocketCore::tickBackend()
{
    const bool ibuf_valid = !ibuf.empty();
    if (ibuf_valid)
        events.raise(EventId::IBufValid);

    bool backend_stalled = false;

    if (!halted && serializeUntil > now) {
        backend_stalled = true;
        events.raise(EventId::CsrInterlock);
    } else if (!halted && ibuf_valid) {
        // Stall checks peek at the ring head through references
        // (valid: nothing pushes or pops during the checks); the
        // PipeUop is copied out only when the instruction issues.
        const Retired &peek = ibuf.retFront();
        const u8 peek_flags = ibuf.flagsFront();
        const InstClass cls = classOf(peek.inst.op);

        // --- stall checks ------------------------------------------
        bool stall = false;
        const bool dcache_busy = dcacheReadyAt > now;

        auto check_operand = [&](u8 r) {
            if (r == 0 || regReady[r] <= now)
                return;
            stall = true;
            switch (regProducer[r]) {
              case InstClass::Load:
                // A consumer waiting on a missing load is a D$ stall;
                // the load-use interlock event is the single-cycle
                // hit-latency bubble.
                if (dcache_busy) {
                    events.raise(EventId::DCacheBlocked);
                    if (dcacheRefillFromDram)
                        events.raise(EventId::DCacheBlockedDram);
                } else {
                    events.raise(EventId::LoadUseInterlock);
                }
                break;
              case InstClass::Mul:
              case InstClass::Div:
                events.raise(EventId::LongLatencyInterlock);
                events.raise(EventId::MulDivInterlock);
                break;
              default:
                events.raise(EventId::LongLatencyInterlock);
                break;
            }
        };
        if (!(peek_flags & uopflag::wrongPath)) {
            if (readsRs1(peek.inst.op))
                check_operand(peek.inst.rs1);
            if (readsRs2(peek.inst.op))
                check_operand(peek.inst.rs2);
            if (!stall && cls == InstClass::Div && divBusyUntil > now) {
                stall = true;
                events.raise(EventId::MulDivInterlock);
                events.raise(EventId::LongLatencyInterlock);
            }
            if (!stall &&
                (cls == InstClass::Load || cls == InstClass::Store) &&
                dcache_busy) {
                stall = true;
                events.raise(EventId::DCacheBlocked);
                if (dcacheRefillFromDram)
                    events.raise(EventId::DCacheBlockedDram);
            }
        }
        backend_stalled = stall;

        // --- issue --------------------------------------------------
        if (!stall) {
            events.raise(EventId::InstIssued);
            // Copy by construction (see pipebuf.hh): the entry is
            // popped here and used below (the PR 1 ASan bug class is
            // structurally impossible on the ring).
            const PipeUop head = ibuf.front();
            const Retired &ret = head.ret;
            ibuf.popFront();

            if (!head.wrongPath()) {
                raiseRetireClassEvents(ret);
                switch (cls) {
                  case InstClass::IntAlu:
                    if (writesRd(ret.inst.op) && ret.inst.rd) {
                        regReady[ret.inst.rd] = now + 1;
                        regProducer[ret.inst.rd] = InstClass::IntAlu;
                    }
                    break;
                  case InstClass::Mul:
                    regReady[ret.inst.rd] = now + cfg.mulLatency;
                    regProducer[ret.inst.rd] = InstClass::Mul;
                    break;
                  case InstClass::Div:
                    divBusyUntil = now + cfg.divLatency;
                    regReady[ret.inst.rd] = now + cfg.divLatency;
                    regProducer[ret.inst.rd] = InstClass::Div;
                    break;
                  case InstClass::Load:
                  case InstClass::Store: {
                    const MemResult result =
                        mem.data(ret.memAddr, cls == InstClass::Store);
                    if (result.writeback)
                        events.raise(EventId::DCacheRelease);
                    if (result.tlbMiss) {
                        events.raise(EventId::DTlbMiss);
                        if (result.l2TlbMiss)
                            events.raise(EventId::L2TlbMiss);
                    }
                    const Cycle ready = now + result.latency;
                    if (!result.l1Hit) {
                        events.raise(EventId::DCacheMiss);
                        dcacheReadyAt = ready;
                        dcacheRefillFromDram = !result.l2Hit;
                    } else if (result.tlbMiss) {
                        dcacheReadyAt = ready; // page walk blocks
                        dcacheRefillFromDram = false;
                    }
                    if (cls == InstClass::Load && ret.inst.rd) {
                        regReady[ret.inst.rd] = ready;
                        regProducer[ret.inst.rd] = InstClass::Load;
                    }
                    break;
                  }
                  case InstClass::Branch:
                  case InstClass::JumpReg:
                    if (head.mispredicted()) {
                        resolvePending = true;
                        resolveAt = now + 1;
                        resolveTargetMispredict =
                            head.targetMispredict();
                    }
                    if (cls == InstClass::JumpReg && ret.inst.rd) {
                        regReady[ret.inst.rd] = now + 1;
                        regProducer[ret.inst.rd] = InstClass::IntAlu;
                    }
                    break;
                  case InstClass::Jump:
                    if (ret.inst.rd) {
                        regReady[ret.inst.rd] = now + 1;
                        regProducer[ret.inst.rd] = InstClass::IntAlu;
                    }
                    break;
                  case InstClass::Csr:
                    // CSR ops serialize the pipeline briefly.
                    serializeUntil = now + 3;
                    if (ret.inst.rd) {
                        regReady[ret.inst.rd] = now + 1;
                        regProducer[ret.inst.rd] = InstClass::IntAlu;
                    }
                    break;
                  case InstClass::Fence:
                    // Intended flush: counted via fence-retired, not
                    // the machine-clear Flush event.
                    serializeUntil =
                        std::max({dcacheReadyAt, divBusyUntil,
                                  now + 2});
                    if (ret.inst.op == Op::FenceI) {
                        mem.flushICache();
                        // Squash only wrong-path synthetics (always a
                        // contiguous tail). The buffered correct-path
                        // uops were already consumed from the replay
                        // stream, which cannot rewind: dropping them
                        // desynchronizes the core from the executor,
                        // and if one was a mispredicted branch the
                        // core wrong-path-fetches forever because its
                        // resolution dies with it. They are exactly
                        // what a refetch would deliver; the flush
                        // cost is modeled by the cold I-cache and the
                        // redirect penalty.
                        while (!ibuf.empty() &&
                               (ibuf.flagsAt(ibuf.size() - 1) &
                                uopflag::wrongPath))
                            ibuf.popBack();
                        frontend.refetch();
                    }
                    break;
                  case InstClass::System:
                    halted = true;
                    break;
                }
            }
        }
    }

    // Fetch-bubble event: decode ready, no valid instruction, and not
    // in a recovery shadow (the §III definition).
    if (!halted && !ibuf_valid && !backend_stalled &&
        !frontend.isRecovering() && serializeUntil <= now) {
        events.raise(EventId::FetchBubbles);
    }
    if (!backend_stalled && !halted)
        events.raise(EventId::IBufReady);

    // --- mispredict resolution (end of execute stage) ---------------
    if (resolvePending && resolveAt <= now) {
        resolvePending = false;
        events.raise(EventId::BranchMispredict);
        if (resolveTargetMispredict)
            events.raise(EventId::CtrlFlowTargetMispredict);
        // Squash wrong-path work and redirect the frontend.
        ibuf.clear();
        frontend.redirect();
    }
}

void
RocketCore::tickStages()
{
    tickBackend();
    tickFrontend();
}

} // namespace icicle
