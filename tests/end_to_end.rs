//! End-to-end integration tests across the whole workspace: real workloads,
//! real configurations, full scheme grid — the invariants the paper's
//! evaluation rests on.

use shadowbinding::core::Scheme;
use shadowbinding::stats::{suite_ipc, BenchResult, SuiteSummary};
use shadowbinding::timing::relative_timing;
use shadowbinding::uarch::{Core, CoreConfig};
use shadowbinding::workloads::{generate, spec2017_profiles};

const OPS: usize = 6_000;
const SEED: u64 = 1234;

fn ipc(config: &CoreConfig, scheme: Scheme, bench: &str) -> f64 {
    let p = *spec2017_profiles()
        .iter()
        .find(|p| p.name == bench)
        .unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let trace = generate(&p, OPS, SEED);
    let mut core = Core::with_scheme(config.clone(), scheme, trace);
    let stats = core.run_to_completion(400_000_000);
    stats.ipc()
}

/// Every scheme commits every benchmark exactly (no lost or duplicated
/// architectural work through squashes, flushes and replays).
#[test]
fn full_grid_commits_exactly() {
    for config in [CoreConfig::small(), CoreConfig::mega()] {
        for scheme in Scheme::all() {
            for p in spec2017_profiles().iter().take(6) {
                let trace = generate(p, 2_000, SEED);
                let mut core = Core::with_scheme(config.clone(), scheme, trace);
                let stats = core.run_to_completion(100_000_000);
                assert_eq!(
                    stats.committed.get(),
                    2_000,
                    "{} on {} under {scheme}",
                    p.name,
                    config.name
                );
            }
        }
    }
}

/// Baseline IPC increases monotonically from Small to Mega (Table 1's
/// premise: wider configurations are faster).
#[test]
fn baseline_ipc_scales_with_width() {
    let mut prev = 0.0;
    for config in CoreConfig::boom_sweep() {
        let rows: Vec<BenchResult> = spec2017_profiles()
            .iter()
            .take(8)
            .map(|p| {
                let trace = generate(p, OPS, SEED);
                let mut core = Core::with_scheme(config.clone(), Scheme::Baseline, trace);
                let s = core.run_to_completion(400_000_000);
                BenchResult::new(p.name, s.committed.get(), s.cycles.get())
            })
            .collect();
        let ipc = suite_ipc(&rows);
        assert!(
            ipc > prev,
            "{} IPC {ipc:.3} must exceed the previous config's {prev:.3}",
            config.name
        );
        prev = ipc;
    }
}

/// No secure scheme may ever *beat* baseline IPC on the same workload
/// beyond noise — they only restrict execution. (§8.1's exchange2
/// NDA-beats-STT anomaly is between schemes, never versus baseline.)
#[test]
fn secure_schemes_never_beat_baseline() {
    let config = CoreConfig::mega();
    for bench in ["502.gcc", "538.imagick", "548.exchange2", "505.mcf"] {
        let base = ipc(&config, Scheme::Baseline, bench);
        for scheme in Scheme::secure() {
            let s = ipc(&config, scheme, bench);
            // 2% tolerance: second-order effects (prefetch timing shifts,
            // replay avoidance) can nudge a single benchmark past baseline,
            // as on real hardware; the suite means never do.
            assert!(
                s <= base * 1.02,
                "{bench}: {scheme} IPC {s:.3} exceeds baseline {base:.3}"
            );
        }
    }
}

/// The paper's §8.1 headline ordering on the Mega config: STT-Issue loses
/// the least IPC, NDA the most, with STT-Rename in between.
#[test]
fn mega_scheme_ordering_matches_paper() {
    let config = CoreConfig::mega();
    let mut means = Vec::new();
    for scheme in Scheme::secure() {
        let mut base_rows = Vec::new();
        let mut rows = Vec::new();
        for p in spec2017_profiles().iter().take(10) {
            let trace = generate(p, OPS, SEED);
            let mut core = Core::with_scheme(config.clone(), Scheme::Baseline, trace.clone());
            let b = core.run_to_completion(400_000_000);
            base_rows.push(BenchResult::new(p.name, b.committed.get(), b.cycles.get()));
            let mut core = Core::with_scheme(config.clone(), scheme, trace);
            let s = core.run_to_completion(400_000_000);
            rows.push(BenchResult::new(p.name, s.committed.get(), s.cycles.get()));
        }
        means.push((
            scheme,
            SuiteSummary::new(base_rows, rows).mean_normalized_ipc(),
        ));
    }
    let get = |s: Scheme| means.iter().find(|(m, _)| *m == s).unwrap().1;
    assert!(
        get(Scheme::SttIssue) > get(Scheme::SttRename),
        "STT-Issue must retain more IPC than STT-Rename: {means:?}"
    );
    assert!(
        get(Scheme::SttRename) > get(Scheme::Nda),
        "NDA must lose the most IPC: {means:?}"
    );
}

/// §8.4's headline reversal: despite NDA's worse IPC, its timing advantage
/// gives it the best *performance* at the Mega configuration.
#[test]
fn nda_wins_performance_at_mega() {
    let config = CoreConfig::mega();
    let mut perf = Vec::new();
    for scheme in Scheme::secure() {
        let mut rel_sum = 0.0;
        let benches = ["502.gcc", "538.imagick", "505.mcf", "541.leela"];
        for bench in benches {
            let base = ipc(&config, Scheme::Baseline, bench);
            rel_sum += ipc(&config, scheme, bench) / base;
        }
        let rel_ipc = rel_sum / 4.0;
        perf.push((scheme, rel_ipc * relative_timing(&config, scheme)));
    }
    let nda = perf.iter().find(|(s, _)| *s == Scheme::Nda).unwrap().1;
    for (scheme, p) in &perf {
        if *scheme != Scheme::Nda {
            assert!(
                nda > *p,
                "NDA performance {nda:.3} must beat {scheme}'s {p:.3} at Mega ({perf:?})"
            );
        }
    }
}

/// exchange2 under STT-Rename suffers orders of magnitude more forwarding
/// errors than under NDA (§9.2).
#[test]
fn exchange2_forwarding_error_pathology() {
    let config = CoreConfig::mega();
    let p = *spec2017_profiles()
        .iter()
        .find(|p| p.name == "548.exchange2")
        .unwrap();
    let errors = |scheme| {
        let trace = generate(&p, 12_000, SEED);
        let mut core = Core::with_scheme(config.clone(), scheme, trace);
        core.run_to_completion(400_000_000);
        core.stats().forwarding_errors.get()
    };
    let rename = errors(Scheme::SttRename);
    let nda = errors(Scheme::Nda);
    let issue = errors(Scheme::SttIssue);
    assert!(
        rename > 20 * nda.max(1),
        "STT-Rename ({rename}) must dwarf NDA ({nda}) in forwarding errors"
    );
    assert!(
        rename > issue,
        "STT-Issue's natural split avoids the pathology"
    );
}

/// §9.5's mechanical core, deconfounded from baseline-IPC shifts: on the
/// *same* core configuration, the abstract-simulator idealizations
/// (unbounded untaint/broadcast bandwidth, split store taints) must not
/// increase a scheme's IPC loss — which is how abstract evaluations end up
/// optimistic.
#[test]
fn idealized_scheme_plumbing_is_cheaper() {
    use shadowbinding::core::SchemeConfig;
    let config = CoreConfig::large();
    for scheme in [Scheme::SttRename, Scheme::Nda] {
        let loss = |scheme_cfg: SchemeConfig| {
            let mut base = Vec::new();
            let mut sch = Vec::new();
            for p in spec2017_profiles().iter().take(8) {
                let trace = generate(p, OPS, SEED);
                let mut c = Core::with_scheme(config.clone(), Scheme::Baseline, trace.clone());
                let b = c.run_to_completion(400_000_000);
                base.push(BenchResult::new(p.name, b.committed.get(), b.cycles.get()));
                let mut c = Core::new(config.clone(), scheme_cfg, trace);
                let s = c.run_to_completion(400_000_000);
                sch.push(BenchResult::new(p.name, s.committed.get(), s.cycles.get()));
            }
            SuiteSummary::new(base, sch).ipc_loss_percent()
        };
        let rtl_loss = loss(SchemeConfig::rtl(scheme, config.mem_ports));
        let ideal_loss = loss(SchemeConfig::abstract_sim(scheme));
        assert!(
            ideal_loss <= rtl_loss + 0.1,
            "{scheme}: idealized plumbing ({ideal_loss:.2}%) must not cost more than RTL ({rtl_loss:.2}%)"
        );
    }
}
