//! Golden-stats differential tests: the event-wheel scheduler must be
//! cycle-for-cycle indistinguishable from the reference full-scan
//! scheduler. Every counter in [`sb_stats::SimStats`] — committed ops,
//! cycles, the full stall breakdown, scheme counters, cache counters — has
//! to match exactly, for every scheme, on both an RTL and an abstract
//! configuration, across several workload profiles and seeds.

use sb_core::{Scheme, SchemeConfig, ThreatModel};
use sb_stats::SimStats;
use sb_uarch::{Core, CoreConfig, PredictorConfig, SchedulerKind};
use sb_workloads::{
    attack_battery, generate, m_shadow_kernel, mshr_contention_kernel, prime_probe_kernel,
    spec2017_profiles, spectre_v1_kernel, ssb_kernel,
};
use std::collections::BTreeSet;

const MAX_CYCLES: u64 = 10_000_000;

fn run(config: &CoreConfig, scheme_cfg: SchemeConfig, trace: sb_isa::Trace) -> SimStats {
    let mut core = Core::new(config.clone(), scheme_cfg, trace);
    core.run_to_completion(MAX_CYCLES);
    core.stats().clone()
}

fn with_scheduler(config: &CoreConfig, kind: SchedulerKind) -> CoreConfig {
    let mut c = config.clone();
    c.scheduler = kind;
    c
}

/// Runs one (config, scheme-config, trace) point under both schedulers and
/// asserts every statistic matches.
fn assert_golden(config: &CoreConfig, scheme_cfg: SchemeConfig, trace: &sb_isa::Trace, tag: &str) {
    let reference = run(
        &with_scheduler(config, SchedulerKind::Reference),
        scheme_cfg,
        trace.clone(),
    );
    let wheel = run(
        &with_scheduler(config, SchedulerKind::EventWheel),
        scheme_cfg,
        trace.clone(),
    );
    assert_eq!(
        reference.committed.get(),
        wheel.committed.get(),
        "{tag}: committed diverged"
    );
    assert_eq!(
        reference.cycles.get(),
        wheel.cycles.get(),
        "{tag}: cycles diverged"
    );
    assert_eq!(
        reference.stalls, wheel.stalls,
        "{tag}: stall breakdown diverged"
    );
    assert_eq!(reference, wheel, "{tag}: full statistics diverged");
}

fn scheme_variants(config: &CoreConfig) -> Vec<(String, SchemeConfig)> {
    let mut out = Vec::new();
    for scheme in Scheme::all() {
        out.push((scheme.to_string(), config.scheme_config(scheme)));
    }
    // The fifth evaluated variant: STT-Rename with the §9.2 split-store
    // ablation, which exercises the per-part taint parking paths.
    let mut split = SchemeConfig::rtl(Scheme::SttRename, config.mem_ports);
    split.split_store_taints = true;
    out.push(("STT-Rename+split".to_string(), split));
    out
}

#[test]
fn golden_stats_mega_all_schemes() {
    let config = CoreConfig::mega();
    let profiles = spec2017_profiles();
    for name in ["502.gcc", "505.mcf", "548.exchange2"] {
        let profile = profiles.iter().find(|p| p.name.contains(name)).unwrap();
        let trace = generate(profile, 4_000, 0xC0FFEE);
        for (tag, scheme_cfg) in scheme_variants(&config) {
            assert_golden(&config, scheme_cfg, &trace, &format!("mega/{name}/{tag}"));
        }
    }
}

#[test]
fn golden_stats_small_all_schemes() {
    // The small config stresses resource-stall paths (8-entry queues).
    let config = CoreConfig::small();
    let profiles = spec2017_profiles();
    let profile = profiles
        .iter()
        .find(|p| p.name.contains("520.omnetpp"))
        .unwrap();
    for seed in [1u64, 2, 3] {
        let trace = generate(profile, 3_000, seed);
        for (tag, scheme_cfg) in scheme_variants(&config) {
            assert_golden(&config, scheme_cfg, &trace, &format!("small/s{seed}/{tag}"));
        }
    }
}

#[test]
fn golden_stats_abstract_fidelity() {
    // Abstract fidelity: 1-cycle dispatch, unbounded broadcast, split
    // store taints — different wake timing than the RTL presets.
    let config = CoreConfig::gem5_stt();
    let profiles = spec2017_profiles();
    let profile = profiles
        .iter()
        .find(|p| p.name.contains("541.leela"))
        .unwrap();
    let trace = generate(profile, 3_000, 0xBEEF);
    for (tag, scheme_cfg) in scheme_variants(&config) {
        assert_golden(&config, scheme_cfg, &trace, &format!("gem5/{tag}"));
    }
}

#[test]
fn golden_stats_attack_kernels() {
    // The attack kernels drive explicit wrong-path injection, squash and
    // forwarding-error flushes through both schedulers.
    let config = CoreConfig::mega();
    for secret in [3usize, 11] {
        let spectre = spectre_v1_kernel(secret);
        let ssb = ssb_kernel(secret);
        for (tag, scheme_cfg) in scheme_variants(&config) {
            assert_golden(
                &config,
                scheme_cfg,
                &spectre.trace,
                &format!("spectre/{secret}/{tag}"),
            );
            assert_golden(
                &config,
                scheme_cfg,
                &ssb.trace,
                &format!("ssb/{secret}/{tag}"),
            );
        }
    }
}

#[test]
fn golden_leak_sets_attack_battery() {
    // The security verdict must not depend on which scheduler simulated
    // it: for every battery scenario, scheme variant AND threat model,
    // the set of probe slots changed by squashed instructions (the
    // transient leak set, decoded from cache state or MSHR occupancy per
    // scenario) and the total transient-change count must be identical
    // under the event wheel and the reference scheduler. Rides the same
    // oracle philosophy as the SimStats tests — the leak matrix is part
    // of the golden contract. The Futuristic axis is pinned here too:
    // under the Spectre model the secure schemes MUST leak the M-shadow
    // scenario (its root escapes C/D tracking), and under the Futuristic
    // model they must block it — the differential proof that the M/E
    // shadows do real work.
    let config = CoreConfig::mega();
    for secret in [2usize, 11] {
        for kernel in attack_battery(secret) {
            for model in ThreatModel::all() {
                for (tag, scheme_cfg) in scheme_variants(&config) {
                    let scheme_cfg = scheme_cfg.with_threat_model(model);
                    let measure = |kind: SchedulerKind| {
                        let mut run_config = with_scheduler(&config, kind);
                        if let Some(p) = kernel.predictor {
                            run_config.predictor =
                                PredictorConfig::enabled(p.pht_entries, p.btb_entries, p.ghr_bits);
                        }
                        let mut core = Core::new(run_config, scheme_cfg, kernel.trace.clone());
                        core.memory_mut().attach_leakage_observer();
                        core.memory_mut().attach_contention_observer();
                        core.run_to_completion(MAX_CYCLES);
                        let leakage = core.memory().leakage_observer().expect("attached");
                        let contention = core.memory().contention_observer().expect("attached");
                        (
                            kernel.decode_transient_slots(leakage, contention),
                            leakage.transient_changes().count(),
                            contention.transient_port_uses(),
                        )
                    };
                    let reference = measure(SchedulerKind::Reference);
                    let wheel = measure(SchedulerKind::EventWheel);
                    let label = format!("{}/{secret}/{model}/{tag}", kernel.trace.name());
                    assert_eq!(
                        reference, wheel,
                        "{label}: leak sets diverged across schedulers"
                    );
                    if scheme_cfg.scheme.is_secure() && kernel.claimed_under(model) {
                        assert!(
                            wheel.0.is_empty(),
                            "{label}: secure scheme leaked slots {:?}",
                            wheel.0
                        );
                    } else {
                        // Baseline always — and, pinned deliberately, a
                        // secure scheme on an out-of-claim scenario (the
                        // M-shadow kernel under the Spectre model).
                        assert!(
                            kernel.expected_slots.iter().all(|s| wheel.0.contains(s)),
                            "{label}: must leak {:?}, got {:?}",
                            kernel.expected_slots,
                            wheel.0
                        );
                        let allowed: BTreeSet<usize> =
                            kernel.allowed_slots.iter().copied().collect();
                        assert!(
                            wheel.0.is_subset(&allowed),
                            "{label}: leaked outside the secret address set: {:?}",
                            wheel.0
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn golden_stats_futuristic_threat_model() {
    // The Futuristic model exercises scheduler paths the Spectre model
    // never reaches (M-shadows resolving at commit, commit-gated untaint
    // broadcasts, masked-transmitter parking keyed by still-in-flight
    // roots): both schedulers must stay cycle-identical there too, on a
    // real workload profile and on the kernels that stress the new paths.
    let config = CoreConfig::mega();
    let profiles = spec2017_profiles();
    let profile = profiles
        .iter()
        .find(|p| p.name.contains("502.gcc"))
        .unwrap();
    let trace = generate(profile, 3_000, 0xF07);
    for (tag, scheme_cfg) in scheme_variants(&config) {
        let cfg = scheme_cfg.with_threat_model(ThreatModel::Futuristic);
        assert_golden(&config, cfg, &trace, &format!("futuristic/gcc/{tag}"));
        for kernel in [
            m_shadow_kernel(7),
            prime_probe_kernel(7),
            mshr_contention_kernel(7),
        ] {
            assert_golden(
                &config,
                cfg,
                &kernel.trace,
                &format!("futuristic/{}/{tag}", kernel.trace.name()),
            );
        }
    }
}

#[test]
fn golden_stats_decoded_traces() {
    // `import`'s guarantee: a trace that went through the SBTR codec
    // (encode → bytes → decode) must drive both schedulers to statistics
    // identical to the freshly generated trace, for every scheme variant.
    let config = CoreConfig::mega();
    let profiles = spec2017_profiles();
    let profile = profiles
        .iter()
        .find(|p| p.name.contains("505.mcf"))
        .unwrap();

    let fresh = generate(profile, 3_000, 0xFEED);
    let decoded = sb_isa::decode_trace(&sb_isa::encode_trace(&fresh)).expect("decodes");
    assert_eq!(fresh, decoded, "codec round-trip altered the trace");

    for (tag, scheme_cfg) in scheme_variants(&config) {
        for kind in [SchedulerKind::Reference, SchedulerKind::EventWheel] {
            let from_fresh = run(&with_scheduler(&config, kind), scheme_cfg, fresh.clone());
            let from_decoded = run(&with_scheduler(&config, kind), scheme_cfg, decoded.clone());
            assert_eq!(
                from_fresh, from_decoded,
                "codec/{tag}/{kind:?}: decoded trace diverged from fresh"
            );
        }
        // And the decoded trace still satisfies the cross-scheduler oracle.
        assert_golden(&config, scheme_cfg, &decoded, &format!("codec/{tag}"));
    }
}

#[test]
fn event_wheel_is_the_default() {
    assert_eq!(CoreConfig::mega().scheduler, SchedulerKind::EventWheel);
    assert_eq!(SchedulerKind::default(), SchedulerKind::EventWheel);
}
