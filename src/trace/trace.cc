#include "trace/trace.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/dispatch.hh"

namespace icicle
{

// ---------------------------------------------------------- TraceSpec

void
TraceSpec::addEvent(const Core &core, EventId event)
{
    const u32 sources = core.bus().sourcesOf(event);
    for (u32 s = 0; s < sources; s++)
        addLane(event, static_cast<u8>(s));
}

void
TraceSpec::addLane(EventId event, u8 lane)
{
    if (indexOf(event, lane) >= 0)
        return;
    if (fields.size() >= 64)
        fatal("trace bundle limited to 64 signals");
    fields.push_back(TraceField{event, lane});
}

int
TraceSpec::indexOf(EventId event, u8 lane) const
{
    for (u32 f = 0; f < fields.size(); f++) {
        if (fields[f].event == event && fields[f].lane == lane)
            return static_cast<int>(f);
    }
    return -1;
}

u64
TraceSpec::fieldMask(EventId event) const
{
    u64 mask = 0;
    for (u32 f = 0; f < fields.size(); f++) {
        if (fields[f].event == event)
            mask |= 1ull << f;
    }
    return mask;
}

TraceSpec
TraceSpec::tmaBundle(const Core &core)
{
    TraceSpec spec;
    spec.addEvent(core, EventId::Cycles);
    if (core.kind() == CoreKind::Boom) {
        spec.addEvent(core, EventId::UopsIssued);
        spec.addEvent(core, EventId::UopsRetired);
    } else {
        spec.addEvent(core, EventId::InstIssued);
        spec.addEvent(core, EventId::InstRetired);
    }
    spec.addEvent(core, EventId::FetchBubbles);
    spec.addEvent(core, EventId::Recovering);
    spec.addEvent(core, EventId::BranchMispredict);
    spec.addEvent(core, EventId::Flush);
    spec.addEvent(core, EventId::FenceRetired);
    spec.addEvent(core, EventId::ICacheMiss);
    spec.addEvent(core, EventId::ICacheBlocked);
    spec.addEvent(core, EventId::DCacheBlocked);
    return spec;
}

TraceSpec
TraceSpec::frontendBundle()
{
    // The six performance-critical frontend signals of Fig. 3.
    TraceSpec spec;
    spec.addLane(EventId::ICacheMiss, 0);
    spec.addLane(EventId::ICacheBlocked, 0);
    spec.addLane(EventId::IBufValid, 0);
    spec.addLane(EventId::IBufReady, 0);
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::FetchBubbles, 0);
    return spec;
}

// -------------------------------------------------------------- Trace

TracePacker::TracePacker(const TraceSpec &spec)
{
    for (u32 f = 0; f < spec.fields.size(); f++) {
        const TraceField &field = spec.fields[f];
        if (!segments.empty()) {
            Segment &last = segments.back();
            const u32 len =
                static_cast<u32>(std::popcount(last.laneMask));
            if (field.event == last.event &&
                field.lane == last.laneStart + len) {
                last.laneMask =
                    static_cast<u16>((last.laneMask << 1) | 1);
                continue;
            }
        }
        Segment seg;
        seg.event = field.event;
        seg.laneStart = field.lane;
        seg.fieldBase = static_cast<u8>(f);
        seg.laneMask = 1;
        segments.push_back(seg);
    }
}

bool
Trace::high(u64 cycle, EventId event, u8 lane) const
{
    const int field = traceSpec.indexOf(event, lane);
    if (field < 0)
        return false;
    return bit(cycle, static_cast<u32>(field));
}

u64
Trace::count(EventId event, u8 lane) const
{
    const int field = traceSpec.indexOf(event, lane);
    if (field < 0)
        return 0;
    u64 total = 0;
    const u64 mask = 1ull << field;
    for (u64 word : records)
        total += (word & mask) ? 1 : 0;
    return total;
}

u64
Trace::countAllLanes(EventId event) const
{
    const u64 mask = traceSpec.fieldMask(event);
    if (mask == 0)
        return 0;
    u64 total = 0;
    for (u64 word : records)
        total += static_cast<u64>(std::popcount(word & mask));
    return total;
}

Trace
traceRun(Core &core, const TraceSpec &spec, u64 max_cycles)
{
    Trace trace(spec);
    runCoreLoop(core, max_cycles, [&trace](Cycle, const EventBus &bus) {
        trace.capture(bus);
    });
    return trace;
}

// ----------------------------------------------------------- file I/O

namespace
{
constexpr u32 kTraceMagic = 0x49434c54; // "ICLT"
/** Version 2 appends a CRC32 of the cycle-record payload. */
constexpr u32 kTraceVersion = 2;
} // namespace

Trace
readTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open trace file: ", path);
    auto get32 = [&in] {
        u32 v = 0;
        in.read(reinterpret_cast<char *>(&v), 4);
        return v;
    };
    auto get64 = [&in] {
        u64 v = 0;
        in.read(reinterpret_cast<char *>(&v), 8);
        return v;
    };
    if (get32() != kTraceMagic)
        fatal("not an Icicle trace file: ", path);
    const u32 version = get32();
    if (version != 1 && version != kTraceVersion)
        fatal("unsupported trace version ", version, " in ", path);
    // Build the spec field-by-field with explicit validation. Going
    // through TraceSpec::addLane here would silently *dedup* a
    // corrupt duplicate (event, lane) pair, shifting the bit index of
    // every subsequent field and misattributing all later signals —
    // a malformed header must be rejected, not repaired.
    TraceSpec spec;
    const u32 num_fields = get32();
    if (!in)
        fatal("truncated trace file header: ", path);
    if (num_fields > 64)
        fatal("corrupt trace header in ", path, ": ", num_fields,
              " fields (trace bundles are limited to 64 signals)");
    for (u32 f = 0; f < num_fields; f++) {
        const u32 event = get32();
        const u32 lane = get32();
        if (!in)
            fatal("truncated trace file header: ", path);
        if (event >= kNumEvents)
            fatal("corrupt trace header in ", path, ": field ", f,
                  " has out-of-range event id ", event);
        if (lane >= kMaxSources)
            fatal("corrupt trace header in ", path, ": field ", f,
                  " has out-of-range lane ", lane);
        const EventId id = static_cast<EventId>(event);
        if (spec.indexOf(id, static_cast<u8>(lane)) >= 0)
            fatal("corrupt trace header in ", path, ": field ", f,
                  " duplicates (", eventName(id), ", lane ", lane,
                  ")");
        spec.fields.push_back(
            TraceField{id, static_cast<u8>(lane)});
    }
    Trace trace(spec);
    const u64 cycles = get64();
    if (!in)
        fatal("truncated trace file header: ", path);
    Crc32 crc;
    for (u64 c = 0; c < cycles; c++) {
        const u64 word = get64();
        if (!in)
            fatal("truncated trace file ", path, ": header promises ",
                  cycles, " cycles but only ", c,
                  " cycle records are present");
        crc.update(&word, 8);
        trace.append(word);
    }
    if (version >= 2) {
        const u32 stored = get32();
        if (!in)
            fatal("truncated trace file ", path, ": all ", cycles,
                  " cycle records present but the CRC trailer is "
                  "missing");
        if (stored != crc.value())
            fatal("corrupt trace file ", path,
                  ": payload CRC mismatch (stored ", stored,
                  ", computed ", crc.value(), ")");
    }
    return trace;
}

u64
clampTraceWindow(u64 num_cycles, u64 begin, u64 end, const char *what)
{
    if (num_cycles == 0)
        fatal(what, ": trace has no cycles");
    if (begin >= num_cycles)
        fatal(what, ": window begins at cycle ", begin,
              " but the trace ends at cycle ", num_cycles);
    end = std::min(end, num_cycles);
    if (begin >= end)
        fatal(what, ": empty window [", begin, ", ", end, ")");
    return end;
}

// ------------------------------------------------------ TraceAnalyzer

std::vector<SignalRun>
TraceAnalyzer::runsOfMask(u64 mask) const
{
    std::vector<SignalRun> runs;
    if (mask == 0)
        return runs;
    const std::vector<u64> &words = trace.raw();
    bool in_run = false;
    u64 start = 0;
    for (u64 c = 0; c < words.size(); c++) {
        const bool high = (words[c] & mask) != 0;
        if (high && !in_run) {
            in_run = true;
            start = c;
        } else if (!high && in_run) {
            runs.push_back(SignalRun{start, c - start});
            in_run = false;
        }
    }
    if (in_run)
        runs.push_back(SignalRun{start, words.size() - start});
    return runs;
}

std::vector<SignalRun>
TraceAnalyzer::runsOf(EventId event, u8 lane) const
{
    const int field = trace.spec().indexOf(event, lane);
    return runsOfMask(field < 0 ? 0 : 1ull << field);
}

std::vector<SignalRun>
TraceAnalyzer::runsOfAny(EventId event) const
{
    return runsOfMask(trace.spec().fieldMask(event));
}

std::vector<u64>
TraceAnalyzer::fieldCountsInWindow(u64 begin, u64 end,
                                   u64 field_mask) const
{
    std::vector<u64> counts(trace.spec().numFields(), 0);
    if (field_mask == 0)
        return counts;
    const std::vector<u64> &words = trace.raw();
    for (u64 c = begin; c < end; c++) {
        for (u64 set = words[c] & field_mask; set != 0; set &= set - 1)
            counts[static_cast<u32>(std::countr_zero(set))]++;
    }
    return counts;
}

u64
TraceAnalyzer::checkWindow(u64 begin, u64 end, const char *query) const
{
    const std::string what = std::string("TraceAnalyzer::") + query;
    return clampTraceWindow(trace.numCycles(), begin, end,
                            what.c_str());
}

std::string
TraceAnalyzer::plot(u64 begin, u64 end) const
{
    end = clampTraceWindow(trace.numCycles(), begin, end,
                           "TraceAnalyzer::plot");
    std::ostringstream os;
    char label[64];
    for (u32 f = 0; f < trace.spec().numFields(); f++) {
        const TraceField &field = trace.spec().fields[f];
        std::snprintf(label, sizeof(label), "%18s[%u] |",
                      eventName(field.event), field.lane);
        os << label;
        for (u64 c = begin; c < end; c++)
            os << (trace.bit(c, f) ? '*' : '.');
        os << "|\n";
    }
    return os.str();
}

} // namespace icicle
