/**
 * @file
 * Microarchitectural event tracing (Icicle's TraceRV extension,
 * §IV-C) and the temporal TMA analyzer (§V-B).
 *
 * A TraceSpec selects which (event, lane) signals to record; the
 * tracer packs one bit per signal per simulated cycle, exactly like
 * the customized TraceRV bridge streams dynamic signals per cycle
 * instead of instruction data. Traces can be kept in memory or
 * round-tripped through a compact binary file, and the analyzer
 * recomputes counter values, temporal TMA windows, class-overlap
 * upper bounds (Table VI), and recovery-sequence CDFs (Fig. 8b).
 */

#ifndef ICICLE_TRACE_TRACE_HH
#define ICICLE_TRACE_TRACE_HH

#include <string>
#include <vector>

#include "core/core.hh"
#include "pmu/event.hh"
#include "tma/tma.hh"

namespace icicle
{

/** One traced signal: an event source bit. */
struct TraceField
{
    EventId event;
    u8 lane = 0;

    bool
    operator==(const TraceField &other) const
    {
        return event == other.event && lane == other.lane;
    }
};

/** The set of signals a trace records (the TraceBundle definition). */
struct TraceSpec
{
    std::vector<TraceField> fields;

    /** Add every lane of an event on the given core. */
    void addEvent(const Core &core, EventId event);
    /** Add a single lane. */
    void addLane(EventId event, u8 lane);
    /** Bit position of a field, or -1 if absent. */
    int indexOf(EventId event, u8 lane = 0) const;
    /**
     * Packed-word bitmask covering every traced lane of an event
     * (0 if the event is not traced). Resolving this once per query
     * lets analyzers scan the raw words directly instead of paying a
     * linear indexOf() per field per cycle.
     */
    u64 fieldMask(EventId event) const;
    u32 numFields() const
    { return static_cast<u32>(fields.size()); }

    /** Default TMA bundle for a core (the signals §V-B uses). */
    static TraceSpec tmaBundle(const Core &core);
    /** The §III frontend-motivation bundle (Fig. 3 signals). */
    static TraceSpec frontendBundle();
};

/**
 * Precompiled packer for a TraceSpec: contiguous lanes of the same
 * event (the common case — addEvent() adds lanes 0..n-1 in order)
 * collapse into one shift-and-mask segment, so packing a cycle costs
 * a few ALU ops per *event* instead of a branch per *field*. Bit f
 * of a packed word mirrors field f of the spec; in-memory capture and
 * the streaming store path (src/store/) share this packer, so both
 * record identical bits.
 */
class TracePacker
{
  public:
    explicit TracePacker(const TraceSpec &spec);

    /** Pack the current bus state into one trace word. */
    u64
    pack(const EventBus &bus) const
    {
        u64 word = 0;
        for (const Segment &seg : segments) {
            const u64 lanes =
                (static_cast<u64>(bus.mask(seg.event)) >> seg.laneStart) &
                seg.laneMask;
            word |= lanes << seg.fieldBase;
        }
        return word;
    }

  private:
    struct Segment
    {
        EventId event;
        u8 laneStart = 0;
        u8 fieldBase = 0;
        /** Ones-mask of the segment's lane count (applied post-shift). */
        u16 laneMask = 0;
    };
    std::vector<Segment> segments;
};

/** An in-memory trace: one word of packed bits per cycle. */
class Trace
{
  public:
    explicit Trace(const TraceSpec &spec)
        : traceSpec(spec), packer(spec)
    {
    }

    const TraceSpec &spec() const { return traceSpec; }
    u64 numCycles() const { return records.size(); }

    /** Sample the bus (call once per cycle). */
    void
    capture(const EventBus &bus)
    {
        records.push_back(packer.pack(bus));
    }

    /** Is field f high at cycle c? */
    bool
    bit(u64 cycle, u32 field) const
    {
        return (records[cycle] >> field) & 1;
    }

    /** Is (event, lane) high at cycle c? (false if not traced) */
    bool high(u64 cycle, EventId event, u8 lane = 0) const;

    /** Number of cycles where the field is high. */
    u64 count(EventId event, u8 lane = 0) const;
    /** Sum over all traced lanes of the event. */
    u64 countAllLanes(EventId event) const;

    const std::vector<u64> &raw() const { return records; }
    void append(u64 word) { records.push_back(word); }
    /** Drop all captured cycles; keeps capacity (and the spec). */
    void clear() { records.clear(); }

    /**
     * Write this trace as a compressed .icst store (src/store/).
     * block_cycles 0 selects the default block size. Only bits below
     * numFields() are representable; capture never sets others.
     */
    void toStore(const std::string &path, u32 block_cycles = 0) const;
    /** Load an .icst store fully into memory. */
    static Trace fromStore(const std::string &path);

  private:
    TraceSpec traceSpec;
    TracePacker packer;
    std::vector<u64> records;
};

/**
 * Attach a tracer to a core run. Returns the captured trace:
 *
 *   Trace t = traceRun(core, TraceSpec::tmaBundle(core), 1'000'000);
 */
Trace traceRun(Core &core, const TraceSpec &spec, u64 max_cycles);

/**
 * Binary trace file I/O (the DMA-driver data format). writeTrace
 * appends a CRC32 of the cycle-record payload (format version 2);
 * readTrace verifies it and reports expected vs. actual cycle counts
 * on truncation. Version-1 files (no CRC) are still accepted.
 */
void writeTrace(const Trace &trace, const std::string &path);
Trace readTrace(const std::string &path);

/**
 * Validate a [begin, end) cycle window against a trace length:
 * fatal() on zero-cycle traces, a begin at or past the end of the
 * trace, or an empty window. Clamps end to num_cycles and returns
 * the clamped end. `what` names the caller in error messages.
 */
u64 clampTraceWindow(u64 num_cycles, u64 begin, u64 end,
                     const char *what);

// --------------------------------------------------------------------
// Temporal TMA analysis
// --------------------------------------------------------------------

/** A contiguous run of cycles where a signal was high. */
struct SignalRun
{
    u64 start = 0;
    u64 length = 0;
};

/** Result of the Table VI overlap upper-bound analysis. */
struct OverlapBound
{
    /** Cycles analyzed. */
    u64 cycles = 0;
    /** Slots in windows where I$-refill and Recovering overlap. */
    u64 overlapSlots = 0;
    /** Fraction of total slots that may be misclassified. */
    double overlapFraction = 0;
    /** Frontend fraction measured from the trace. */
    double frontendFraction = 0;
    /** Bad-speculation (recovering) fraction from the trace. */
    double badSpecFraction = 0;
    /** Worst-case perturbation of the Frontend class (±). */
    double frontendPerturbation = 0;
    /** Worst-case perturbation of Bad Speculation (±). */
    double badSpecPerturbation = 0;
};

/** Cumulative distribution of recovery-sequence lengths (Fig. 8b). */
struct RecoveryCdf
{
    /** Sorted sequence lengths. */
    std::vector<u64> lengths;

    u64 sequences() const
    { return static_cast<u64>(lengths.size()); }
    /** Length at a given cumulative fraction (0..1). */
    u64 percentile(double fraction) const;
    /** Most common length (the paper finds 4). */
    u64 mode() const;
    u64 max() const { return lengths.empty() ? 0 : lengths.back(); }
};

/** The trace analyzer: applies temporal TMA to raw trace data. */
class TraceAnalyzer
{
  public:
    explicit TraceAnalyzer(const Trace &trace) : trace(trace) {}

    /** Contiguous high-runs of a signal. */
    std::vector<SignalRun> runsOf(EventId event, u8 lane = 0) const;

    /**
     * Contiguous runs where *any* traced lane of the event is high.
     * Multi-lane bundles (e.g. Recovering traced per decode lane)
     * must use this rather than lane 0 alone, or sequences that only
     * assert on other lanes are silently dropped.
     */
    std::vector<SignalRun> runsOfAny(EventId event) const;

    /**
     * Table VI: scan for overlaps between I$-refill activity and
     * Recovering using a rolling window padded by `pad` cycles; any
     * fetch bubble inside such a window could belong to either class.
     */
    OverlapBound overlapUpperBound(u32 core_width, u32 pad = 50) const;

    /** Fig. 8b: lengths of all Recovering sequences. */
    RecoveryCdf recoveryCdf() const;

    /**
     * Temporal TMA over a cycle window: recompute counter values from
     * trace bits and apply the Table II model. The window is
     * validated with clampTraceWindow(): an empty window, a begin at
     * or past the trace end, or a zero-cycle trace is a fatal()
     * error, not a silently empty result.
     */
    TmaResult windowTma(u64 begin, u64 end, u32 core_width) const;

    /**
     * As above, with full model-parameter control (recovery length,
     * TMA-005 paper-literal M_nf_r formula, ...).
     */
    TmaResult windowTma(u64 begin, u64 end,
                        const TmaParams &params) const;

    /**
     * Render a Fig. 3 style ASCII dot plot of the traced signals over
     * [begin, end), one row per signal. Window validation as in
     * windowTma (end is clamped; empty windows are fatal).
     */
    std::string plot(u64 begin, u64 end) const;

  private:
    const Trace &trace;
};

} // namespace icicle

#endif // ICICLE_TRACE_TRACE_HH
