#include "trace/queries.hh"

#include <algorithm>
#include <map>

#include "trace/trace.hh"

namespace icicle
{

namespace
{

/** Intersection of two sorted disjoint interval lists. */
std::vector<std::pair<u64, u64>>
intersectIntervals(const std::vector<std::pair<u64, u64>> &lhs,
                   const std::vector<std::pair<u64, u64>> &rhs)
{
    std::vector<std::pair<u64, u64>> out;
    std::size_t i = 0, j = 0;
    while (i < lhs.size() && j < rhs.size()) {
        const u64 a = std::max(lhs[i].first, rhs[j].first);
        const u64 b = std::min(lhs[i].second, rhs[j].second);
        if (a < b)
            out.emplace_back(a, b);
        if (lhs[i].second < rhs[j].second)
            i++;
        else
            j++;
    }
    return out;
}

/** Sum of the per-field counts selected by a field mask. */
u64
sumMasked(const std::vector<u64> &counts, u64 mask)
{
    u64 total = 0;
    for (u32 f = 0; f < counts.size(); f++)
        total += mask >> f & 1 ? counts[f] : 0;
    return total;
}

} // namespace

u64
RecoveryCdf::percentile(double fraction) const
{
    if (lengths.empty())
        return 0;
    const u64 index = static_cast<u64>(
        fraction * static_cast<double>(lengths.size() - 1) + 0.5);
    return lengths[std::min<u64>(index, lengths.size() - 1)];
}

u64
RecoveryCdf::mode() const
{
    if (lengths.empty())
        return 0;
    std::map<u64, u64> histogram;
    for (u64 length : lengths)
        histogram[length]++;
    u64 best = lengths[0];
    u64 best_count = 0;
    for (const auto &[length, count] : histogram) {
        if (count > best_count) {
            best = length;
            best_count = count;
        }
    }
    return best;
}

std::vector<std::pair<u64, u64>>
TraceQueries::mergeIntervals(std::vector<std::pair<u64, u64>> spans)
{
    std::sort(spans.begin(), spans.end());
    std::vector<std::pair<u64, u64>> merged;
    for (const auto &[a, b] : spans) {
        if (!merged.empty() && a <= merged.back().second)
            merged.back().second = std::max(merged.back().second, b);
        else
            merged.emplace_back(a, b);
    }
    return merged;
}

TmaResult
TraceQueries::windowTma(u64 begin, u64 end, u32 core_width) const
{
    TmaParams params;
    params.coreWidth = core_width;
    return windowTma(begin, end, params);
}

TmaResult
TraceQueries::windowTma(u64 begin, u64 end,
                        const TmaParams &params) const
{
    end = checkWindow(begin, end, "windowTma");

    // The trace events behind each recomputed counter. One counting
    // pass over the window serves all of them.
    static constexpr std::pair<EventId, u64 TmaCounters::*> kCounters[] = {
        {EventId::UopsRetired, &TmaCounters::retiredUops},
        {EventId::InstRetired, &TmaCounters::retiredUops},
        {EventId::UopsIssued, &TmaCounters::issuedUops},
        {EventId::InstIssued, &TmaCounters::issuedUops},
        {EventId::FetchBubbles, &TmaCounters::fetchBubbles},
        {EventId::Recovering, &TmaCounters::recovering},
        {EventId::BranchMispredict, &TmaCounters::branchMispredicts},
        {EventId::Flush, &TmaCounters::machineClears},
        {EventId::FenceRetired, &TmaCounters::fencesRetired},
        {EventId::ICacheBlocked, &TmaCounters::icacheBlocked},
        {EventId::DCacheBlocked, &TmaCounters::dcacheBlocked}};
    u64 mask = 0;
    for (const auto &[event, counter] : kCounters)
        mask |= spec().fieldMask(event);
    const std::vector<u64> fields =
        fieldCountsInWindow(begin, end, mask);

    TmaCounters counters;
    counters.cycles = end - begin;
    for (const auto &[event, counter] : kCounters)
        counters.*counter += sumMasked(fields, spec().fieldMask(event));

    return computeTma(counters, params);
}

RecoveryCdf
TraceQueries::recoveryCdf() const
{
    RecoveryCdf cdf;
    for (const SignalRun &run : runsOfAny(EventId::Recovering))
        cdf.lengths.push_back(run.length);
    std::sort(cdf.lengths.begin(), cdf.lengths.end());
    return cdf;
}

OverlapBound
TraceQueries::overlapUpperBound(u32 core_width, u32 pad) const
{
    OverlapBound result;
    const u64 cycles = numCycles();
    result.cycles = cycles;
    if (cycles == 0)
        return result;
    checkWindow(0, cycles, "overlapUpperBound");

    // I$-refill activity: the I$-blocked signal (refill in progress),
    // seeded by I$-miss edges. OR across every traced lane so
    // multi-lane bundles are not undercounted.
    const std::vector<SignalRun> refills =
        runsOfAny(EventId::ICacheBlocked);
    const std::vector<SignalRun> recoveries =
        runsOfAny(EventId::Recovering);

    auto padded = [&](const std::vector<SignalRun> &signal_runs) {
        std::vector<std::pair<u64, u64>> spans;
        spans.reserve(signal_runs.size());
        for (const SignalRun &run : signal_runs) {
            const u64 a = run.start > pad ? run.start - pad : 0;
            const u64 z =
                std::min(cycles, run.start + run.length + pad);
            spans.emplace_back(a, z);
        }
        return mergeIntervals(std::move(spans));
    };

    // Overlap windows are where a padded refill window and a padded
    // recovery window coincide. Any fetch-bubble slot inside one
    // could count toward either Frontend or Bad Speculation.
    const std::vector<std::pair<u64, u64>> overlap =
        intersectIntervals(padded(refills), padded(recoveries));

    const u64 bubble_mask = spec().fieldMask(EventId::FetchBubbles);
    u64 overlap_slots = 0;
    for (const auto &[a, z] : overlap)
        overlap_slots +=
            sumMasked(fieldCountsInWindow(a, z, bubble_mask),
                      bubble_mask);
    const u64 bubble_slots = sumMasked(
        fieldCountsInWindow(0, cycles, bubble_mask), bubble_mask);
    u64 recovering_cycles = 0;
    for (const SignalRun &run : recoveries)
        recovering_cycles += run.length;

    const double total_slots =
        static_cast<double>(cycles) * core_width;
    result.overlapSlots = overlap_slots;
    result.overlapFraction =
        static_cast<double>(overlap_slots) / total_slots;
    result.frontendFraction =
        static_cast<double>(bubble_slots) / total_slots;
    result.badSpecFraction =
        static_cast<double>(recovering_cycles) * core_width /
        total_slots;
    if (result.frontendFraction > 0) {
        result.frontendPerturbation =
            result.overlapFraction / result.frontendFraction;
    }
    if (result.badSpecFraction > 0) {
        result.badSpecPerturbation =
            result.overlapFraction / result.badSpecFraction;
    }
    return result;
}

} // namespace icicle
