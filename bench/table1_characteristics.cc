/**
 * @file
 * Reproduces Table I: per-application microarchitectural characteristics
 * (L1I/L1D/L2/L3/branch MPKI, from the timing simulator's accounting) and
 * 95th-percentile sojourn latency at 20%, 50%, and 70% of saturation
 * (integrated configuration, 1 worker thread, open-loop Poisson load).
 */

#include <cstdio>

#include "bench/common.h"
#include "core/integrated_harness.h"
#include "sim/sim_harness.h"
#include "sim/trace_gen.h"

using namespace tb;

int
main()
{
    bench::Runner runner(
        "table1", "Table I: TailBench application characteristics");
    const bench::BenchSettings& s = runner.settings();
    std::printf(
        "%-10s %8s %8s %8s %8s %8s | %34s | %34s\n", "app", "L1I",
        "L1D", "L2", "L3", "BrMPKI", "p95 ms @20/50/70% (real time)",
        "p95 ms @20/50/70% (virtual time)");

    for (const auto& name : apps::appNames()) {
        auto app = runner.makeApp(name);

        // MPKIs from the simulator's accounting (zsim substitute).
        sim::SimHarness sim_h;
        runner.measure(sim_h, *app, 50.0, 1, s.fast ? 150 : 400, s.seed);
        const sim::MachineStats& ms = sim_h.lastStats();

        const double loads[3] = {0.2, 0.5, 0.7};

        // Latency at 20/50/70% load on the integrated configuration,
        // median across re-randomized runs (Sec. IV-C methodology).
        // On a shared 2-core host, scheduler preemptions (~10 ms) are
        // the same order as whole-request latencies for the short-
        // request apps, so the real-time columns carry that noise.
        core::IntegratedHarness real_h;
        const double sat = runner.calibrate(real_h, *app, 1);
        const uint64_t budget = runner.budget(name);
        double p95[3] = {0, 0, 0};
        for (int i = 0; i < 3; i++) {
            const bench::RobustPoint pt = runner.measureRobust(
                real_h, *app, loads[i] * sat, 1, budget, s.seed + i,
                s.fast ? 1 : 3, {{"fraction", loads[i]}});
            p95[i] = pt.p95Ns;
        }

        // The same points in virtual time (SimHarness): clean of host
        // noise, the configuration the paper validates in Sec. VI.
        const double vsat = runner.calibrate(sim_h, *app, 1);
        double vp95[3] = {0, 0, 0};
        for (int i = 0; i < 3; i++) {
            const core::RunResult r = runner.measure(
                sim_h, *app, loads[i] * vsat, 1, budget, s.seed + i,
                {{"fraction", loads[i]}});
            vp95[i] = static_cast<double>(r.latency.sojourn.p95Ns);
        }

        std::printf(
            "%-10s %8.2f %8.2f %8.2f %8.2f %8.2f | %10s %10s %10s | "
            "%10s %10s %10s\n",
            name.c_str(), ms.mpki(ms.l1iMisses), ms.mpki(ms.l1dMisses),
            ms.mpki(ms.l2Misses), ms.mpki(ms.l3Misses),
            ms.mpki(ms.branchMisses), bench::fmtMs(p95[0]).c_str(),
            bench::fmtMs(p95[1]).c_str(), bench::fmtMs(p95[2]).c_str(),
            bench::fmtMs(vp95[0]).c_str(), bench::fmtMs(vp95[1]).c_str(),
            bench::fmtMs(vp95[2]).c_str());
    }

    std::printf(
        "\nPaper reference (Table I, p95): xapian 2.67/4.88/9.48 ms, "
        "masstree 428/688us/1.18ms, moses 3.06/5.41/11.42 ms,\n"
        "sphinx 2.08/2.78/3.82 s, img-dnn 2.51/3.94/6.91 ms, specjbb "
        "293/507/739 us, silo 191/374us/1.33ms, shore 1.99/2.80/4.20 ms.\n"
        "Absolute values differ (scaled datasets, different host); check "
        "ordering and growth with load.\n");

    // Second half: MPKIs measured *structurally* — a reuse-profile
    // trace streamed through real set-associative tag arrays (split
    // L1s, unified L2, inclusive DRRIP L3; see sim/cache.h) — rather
    // than read back from the timing model's accounting. Targets are
    // the paper's Table I values.
    bench::printHeader(
        "Table I (structural): MPKI measured through the cache "
        "hierarchy simulator, measured/target per level");
    std::printf("%-10s %15s %15s %15s %15s\n", "app", "L1I m/t",
                "L1D m/t", "L2 m/t", "L3 m/t");
    const uint64_t warm = s.fast ? 4'000 : 12'000;
    const uint64_t meas = s.fast ? 4'000 : 10'000;
    std::vector<std::string> measured_names;
    std::vector<apps::AppProfile> targets;
    std::vector<sim::MeasuredMpki> measured;
    for (const auto& name : apps::appNames()) {
        auto app = apps::makeApp(name);
        const apps::AppProfile p = app->profile();
        const sim::MeasuredMpki m =
            sim::measureTraceMpki(p, s.seed, warm, meas);
        std::printf(
            "%-10s %7.2f/%-7.2f %7.2f/%-7.2f %7.2f/%-7.2f "
            "%7.2f/%-7.2f%s\n",
            name.c_str(), m.l1i, p.l1iMpki, m.l1d, p.l1dMpki, m.l2,
            p.l2Mpki, m.l3, p.l3MpkiFull, m.converged ? "" : " !");
        measured_names.push_back(name);
        targets.push_back(p);
        measured.push_back(m);
    }
    std::printf(
        "(targets are the paper's zsim measurements; the trace "
        "generator is calibrated by fixed point, but conflict misses, "
        "replacement, and inclusion victims come from the real tag "
        "arrays; \"!\" marks apps outside the calibration tolerance)\n");

    // Structural-accuracy rows: per-app measured-vs-target MPKI per
    // level, so the trajectory of the structural model is diffable
    // across commits.
    return runner.finish([&](bench::JsonWriter& jw) {
        jw.num("warmup_ki", static_cast<double>(warm))
            .num("measured_ki", static_cast<double>(meas))
            .beginArray("mpki");
        for (size_t i = 0; i < measured.size(); i++) {
            const apps::AppProfile& p = targets[i];
            const sim::MeasuredMpki& m = measured[i];
            jw.beginObject()
                .str("app", measured_names[i])
                .num("l1i_measured", m.l1i)
                .num("l1i_target", p.l1iMpki)
                .num("l1d_measured", m.l1d)
                .num("l1d_target", p.l1dMpki)
                .num("l2_measured", m.l2)
                .num("l2_target", p.l2Mpki)
                .num("l3_measured", m.l3)
                .num("l3_target", p.l3MpkiFull)
                .num("instructions", static_cast<double>(m.instructions))
                .num("calibration_iterations", m.iterations)
                .boolean("converged", m.converged)
                .endObject();
        }
        jw.endArray();
    });
}
