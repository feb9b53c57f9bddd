/**
 * @file
 * Cycle-level model of the Rocket core: a 5-stage, single-issue,
 * in-order pipeline with a 2-wide frontend (Table IV), blocking-ish
 * L1 D-cache, BHT+BTB branch prediction, and the full Table I Rocket
 * event set including Icicle's three additions (inst-issued,
 * fetch-bubbles, recovering).
 *
 * The model is replay-based: the functional Executor supplies the
 * committed instruction stream; the pipeline model decides *when*
 * each instruction issues and raises the per-cycle event signals the
 * PMU counters and tracer consume. Wrong-path activity after a
 * mispredicted branch is modelled with synthetic wrong-path
 * instructions so the issued-but-flushed quantity behind the TMA
 * Bad-Speculation formula is physical, not inferred.
 *
 * Fetch, prediction and wrong-path fetch are the shared FetchStream
 * (core/fetch.hh) over a BHT; the Core plumbing is CoreShell
 * (core/shell.hh). This file keeps what is Rocket's own: the
 * in-order backend and its interlocks, the CtrlFlowInterlock raised
 * on a JAL BTB miss, and the fence.i squash of the ibuf.
 */

#ifndef ICICLE_ROCKET_ROCKET_HH
#define ICICLE_ROCKET_ROCKET_HH

#include <array>

#include "bpred/bpred.hh"
#include "core/fetch.hh"
#include "core/pipebuf.hh"
#include "core/shell.hh"
#include "mem/hierarchy.hh"
#include "pmu/event.hh"

namespace icicle
{

/** Rocket configuration (Table IV column 1 by default). */
struct RocketConfig
{
    u32 fetchWidth = 2;
    u32 ibufEntries = 8;
    u32 bhtEntries = 512;
    u32 btbEntries = 28;
    u32 mulLatency = 4;
    u32 divLatency = 32;
    /** Cycles from flush to the frontend fetching again. */
    u32 redirectLatency = 2;
    MemConfig mem;
    CounterArch counterArch = CounterArch::Scalar;
};

/**
 * The Rocket core timing model. Construct with a Program, then call
 * run() (or tick() manually, e.g. under a tracer).
 */
class RocketCore final : public CoreShell<RocketCore, false>
{
  public:
    RocketCore(const RocketConfig &config, const Program &program);

    CoreKind kind() const override { return CoreKind::Rocket; }
    u32 coreWidth() const override { return 1; }
    u32 issueWidth() const override { return 1; }
    const char *name() const override { return "Rocket"; }

    const RocketConfig &config() const { return cfg; }

  private:
    friend class CoreShell<RocketCore, false>;

    /** One cycle of the pipeline: backend, then frontend. */
    void tickStages();
    void tickFrontend();
    void tickBackend();
    void raiseRetireClassEvents(const Retired &ret);

    RocketConfig cfg;
    FetchStream<Bht> frontend;
    UopRing ibuf;

    // ---- backend state ----
    /** Cycle at which each architectural register's value is ready. */
    std::array<Cycle, 32> regReady{};
    /** What produced the pending value (for stall attribution). */
    std::array<InstClass, 32> regProducer{};
    Cycle divBusyUntil = 0;
    Cycle dcacheReadyAt = 0;
    /** The outstanding D$ refill is served by DRAM (level-3 TMA). */
    bool dcacheRefillFromDram = false;
    /** In-flight mispredicted branch resolves at this cycle. */
    bool resolvePending = false;
    Cycle resolveAt = 0;
    bool resolveTargetMispredict = false;
    /** CSR/fence serialization: issue stalls until this cycle. */
    Cycle serializeUntil = 0;
};

} // namespace icicle

#endif // ICICLE_ROCKET_ROCKET_HH
