/**
 * @file
 * The core shell both timing models share: the state every core has
 * (executor, memory hierarchy, event bus, CSR file, cycle, halt flag,
 * host-side event totals), the Core accessors over it, and the tick
 * loop around the core's own pipeline stages.
 *
 * CoreShell<Derived, PerLaneTotals> is a CRTP base. tick() clears the
 * bus, raises Cycles, calls Derived::tickStages(), clocks the CSR
 * file and adds the cycle's events to the totals; it is final, so
 * runLoop() calls it without virtual dispatch and the per-cycle hook
 * inlines. PerLaneTotals also keeps a total per source lane (BOOM's
 * multi-lane events, Table V); without it laneTotal() answers lane 0
 * with the event total and every other lane with 0 (Rocket).
 */

#ifndef ICICLE_CORE_SHELL_HH
#define ICICLE_CORE_SHELL_HH

#include <array>
#include <bit>
#include <functional>

#include "core/core.hh"
#include "isa/executor.hh"
#include "mem/hierarchy.hh"
#include "pmu/csr.hh"
#include "pmu/event.hh"

namespace icicle
{

template <typename Derived, bool PerLaneTotals>
class CoreShell : public Core
{
  public:
    void
    tick() final
    {
        events.clear();
        events.raise(EventId::Cycles);

        static_cast<Derived *>(this)->tickStages();

        csrs.tick(events);
        // Only events raised this cycle can change a total.
        u64 dirty = events.dirty();
        while (dirty) {
            const u32 e = static_cast<u32>(std::countr_zero(dirty));
            dirty &= dirty - 1;
            const u16 mask = events.mask(static_cast<EventId>(e));
            totals[e] += static_cast<u64>(std::popcount(mask));
            if constexpr (PerLaneTotals) {
                u16 bits = mask;
                while (bits) {
                    const u32 lane =
                        static_cast<u32>(std::countr_zero(bits));
                    laneTotals[e][lane]++;
                    bits &= bits - 1;
                }
            }
        }
        now++;
    }

    bool done() const final { return halted; }

    u64
    run(u64 max_cycles = ~0ull,
        const std::function<void(Cycle, const EventBus &)> &on_cycle =
            nullptr) final
    {
        if (!on_cycle)
            return runLoop(max_cycles, [](Cycle, const EventBus &) {});
        return runLoop(max_cycles,
                       [&on_cycle](Cycle c, const EventBus &b) {
                           on_cycle(c, b);
                       });
    }

    /** Batch tick loop; the per-cycle hook inlines (runCoreLoop). */
    template <typename F>
    u64
    runLoop(u64 max_cycles, F &&on_cycle)
    {
        u64 simulated = 0;
        while (!halted && simulated < max_cycles) {
            tick();
            on_cycle(now - 1, events);
            simulated++;
        }
        return simulated;
    }

    Cycle cycle() const final { return now; }
    const EventBus &bus() const final { return events; }
    CsrFile &csrFile() final { return csrs; }
    Executor &executor() final { return exec; }
    MemHierarchy &memory() { return mem; }

    /** Exact host-side event totals (sum of source bits per cycle). */
    u64 total(EventId id) const final
    { return totals[static_cast<u32>(id)]; }

    u64
    laneTotal(EventId id, u32 lane) const final
    {
        if constexpr (PerLaneTotals)
            return laneTotals[static_cast<u32>(id)][lane];
        else
            return lane == 0 ? total(id) : 0;
    }

  protected:
    CoreShell(CoreKind kind, CounterArch arch, const MemConfig &mem_config,
              const Program &program)
        : exec(program), mem(mem_config), csrs(kind, arch, &events)
    {
        exec.setCsrBackend(&csrs);
    }

    CoreShell(const CoreShell &) = delete;
    CoreShell &operator=(const CoreShell &) = delete;

    Executor exec;
    MemHierarchy mem;
    EventBus events;
    CsrFile csrs;
    Cycle now = 0;
    bool halted = false;

  private:
    std::array<u64, kNumEvents> totals{};
    std::array<std::array<u64, kMaxSources>, kNumEvents> laneTotals{};
};

} // namespace icicle

#endif // ICICLE_CORE_SHELL_HH
