#include "core/harness.h"

#include <algorithm>
#include <array>

#include "util/logging.h"
#include "util/stats.h"

namespace tb::core {

Harness::~Harness() = default;

namespace {

constexpr std::array<double, 3> kSummaryPcts = {50.0, 95.0, 99.0};

/** summarizeNs over [first, last), permuting the range. The mean is an
 * exact integer sum and one division, so it does not depend on the
 * order the range is in; it equals a double-precision sum in any
 * order while partial sums stay below 2^53 ns. */
LatencySummary
summarizeInPlace(int64_t* first, int64_t* last)
{
    LatencySummary s;
    s.count = static_cast<uint64_t>(last - first);
    if (first == last)
        return s;
    int64_t sum = 0;
    for (const int64_t* p = first; p != last; ++p)
        sum += *p;
    s.meanNs = static_cast<double>(sum) / static_cast<double>(s.count);
    const std::array<int64_t, 3> p =
        util::percentilesInPlace(first, last, kSummaryPcts);
    s.p50Ns = p[0];
    s.p95Ns = p[1];
    s.p99Ns = p[2];
    return s;
}

/** Window index for a generation timestamp: equal-width split of
 * [first, first+span], clamped so the last arrival lands in the last
 * window and stray genLag samples cannot index out of range. */
size_t
windowIndex(int64_t genNs, int64_t firstGenNs, int64_t spanNs, size_t nwin)
{
    if (spanNs <= 0 || nwin <= 1)
        return 0;
    const int64_t off = genNs - firstGenNs;
    if (off <= 0)
        return 0;
    const auto scaled = static_cast<size_t>(
        (static_cast<__int128>(off) * static_cast<__int128>(nwin)) / spanNs);
    return scaled >= nwin ? nwin - 1 : scaled;
}

}  // namespace

LatencySummary
summarizeNs(const std::vector<int64_t>& samples)
{
    std::vector<int64_t> copy(samples);
    return summarizeInPlace(copy.data(), copy.data() + copy.size());
}

RunResult
buildRunResult(std::vector<RequestTiming>&& timings,
               const ResultOptions& opts)
{
    RunResult r;
    r.sloTargetNs = opts.sloTargetNs;
    if (timings.empty())
        return r;
    std::sort(timings.begin(), timings.end(),
              [](const RequestTiming& a, const RequestTiming& b) {
                  return a.genNs < b.genNs;
              });

    const size_t n = timings.size();
    std::vector<int64_t> sojourn(n);
    std::vector<int64_t> queueing(n);
    std::vector<int64_t> service(n);
    int64_t last_end = timings.front().endNs;
    uint64_t slo_met = 0;
    for (size_t i = 0; i < n; i++) {
        const RequestTiming& t = timings[i];
        sojourn[i] = t.sojournNs();
        queueing[i] = t.queueNs();
        service[i] = t.serviceNs();
        last_end = std::max(last_end, t.endNs);
        if (opts.sloTargetNs > 0 && sojourn[i] <= opts.sloTargetNs)
            slo_met++;
    }
    if (opts.sloTargetNs > 0)
        r.sloAttainment = static_cast<double>(slo_met) /
            static_cast<double>(n);

    // Span: first measured arrival to last measured completion. Under
    // overload completions stretch the span, so achieved < offered.
    const int64_t span = last_end - timings.front().genNs;
    if (span > 0)
        r.achievedQps = static_cast<double>(n) * 1e9 /
            static_cast<double>(span);

    // Windowed accounting over the generation-time axis. Default window
    // count scales with the sample size so each window keeps enough
    // samples (>= ~40) for its p99 to mean something.
    const int64_t first_gen = timings.front().genNs;
    const int64_t gen_span = timings.back().genNs - first_gen;
    size_t nwin;
    if (opts.windows > 0) {
        nwin = std::min<size_t>(opts.windows, 256);
    } else {
        nwin = std::max<size_t>(1, std::min<size_t>(12, n / 40));
    }
    if (gen_span <= 0)
        nwin = 1;
    r.windows.resize(nwin);
    for (size_t w = 0; w < nwin; w++) {
        r.windows[w].startNs = first_gen +
            static_cast<int64_t>(static_cast<__int128>(gen_span) * w / nwin);
        r.windows[w].endNs = first_gen +
            static_cast<int64_t>(
                static_cast<__int128>(gen_span) * (w + 1) / nwin);
    }
    if (opts.genLag) {
        for (const GenLagSample& s : *opts.genLag) {
            const size_t w =
                windowIndex(s.genNs, first_gen, gen_span, nwin);
            r.windows[w].maxGenLagNs =
                std::max(r.windows[w].maxGenLagNs, s.lagNs);
        }
    }
    // Timings are in generation order and windowIndex is monotone in
    // genNs, so each window is one contiguous run of the sojourn
    // vector, found by binary search. Summarising a run in place only
    // permutes inside it, and the whole-run summaries below do not
    // depend on order.
    size_t begin = 0;
    for (size_t w = 0; w < nwin; w++) {
        const size_t end = static_cast<size_t>(
            std::partition_point(
                timings.begin() + static_cast<ptrdiff_t>(begin),
                timings.end(),
                [&](const RequestTiming& t) {
                    return windowIndex(t.genNs, first_gen, gen_span,
                                       nwin) <= w;
                }) -
            timings.begin());
        uint64_t met = 0;
        if (opts.sloTargetNs > 0) {
            for (size_t i = begin; i < end; i++)
                met += sojourn[i] <= opts.sloTargetNs;
        }
        WindowStats& ws = r.windows[w];
        ws.count = end - begin;
        const LatencySummary s =
            summarizeInPlace(sojourn.data() + begin, sojourn.data() + end);
        ws.sojournP50Ns = s.p50Ns;
        ws.sojournP95Ns = s.p95Ns;
        ws.sojournP99Ns = s.p99Ns;
        if (opts.sloTargetNs > 0 && ws.count > 0)
            ws.sloFrac = static_cast<double>(met) /
                static_cast<double>(ws.count);
        if (opts.scheduledMeanGapNs > 0.0 &&
            static_cast<double>(ws.maxGenLagNs) > opts.scheduledMeanGapNs)
            ws.genLagged = true;
        begin = end;
    }
    r.latency.sojourn =
        summarizeInPlace(sojourn.data(), sojourn.data() + n);
    r.latency.queueing =
        summarizeInPlace(queueing.data(), queueing.data() + n);
    r.latency.service =
        summarizeInPlace(service.data(), service.data() + n);

    // Coordinated-omission self-check: compare the achieved send
    // timeline (scheduled arrival + generator lag) against the
    // scheduled one. A generator silently degraded to closed-loop
    // stretches the send span and sends a large fraction of requests
    // late; either signal flags the run.
    if (opts.genLag && !opts.genLag->empty() &&
        opts.scheduledMeanGapNs > 0.0) {
        int64_t sched_min = opts.genLag->front().genNs;
        int64_t sched_max = sched_min;
        int64_t send_min = sched_min + opts.genLag->front().lagNs;
        int64_t send_max = send_min;
        uint64_t late = 0;
        for (const GenLagSample& s : *opts.genLag) {
            sched_min = std::min(sched_min, s.genNs);
            sched_max = std::max(sched_max, s.genNs);
            send_min = std::min(send_min, s.genNs + s.lagNs);
            send_max = std::max(send_max, s.genNs + s.lagNs);
            if (static_cast<double>(s.lagNs) > opts.scheduledMeanGapNs)
                late++;
        }
        const double sched_span =
            static_cast<double>(sched_max - sched_min);
        if (sched_span > 0.0)
            r.coSpanStretch =
                static_cast<double>(send_max - send_min) / sched_span;
        r.coLateFrac = static_cast<double>(late) /
            static_cast<double>(opts.genLag->size());
        r.coSuspect = r.coSpanStretch > 1.05 || r.coLateFrac > 0.2;
        if (r.coSuspect)
            TB_LOG_WARN(
                "coordinated-omission check: achieved send span is "
                "%.2fx the scheduled span and %.0f%% of requests went "
                "out more than one mean gap late — the generator "
                "degraded toward closed-loop; treat tails as lower "
                "bounds",
                r.coSpanStretch, r.coLateFrac * 100.0);
    }

    if (opts.keepSamples)
        r.samples = std::move(timings);
    return r;
}

}  // namespace tb::core
