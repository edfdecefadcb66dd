//! Golden differential suite for trace production: the batched generator
//! must emit *byte-identical* traces to the reference per-op RNG walk for
//! every profile, length and seed, and the SBTR codec must round-trip
//! traces — including the attack kernels' wrong-path blocks — without
//! altering a single op. This is the same
//! oracle pattern that de-risked the event-wheel scheduler in PR 1: the
//! seed implementation stays alive as the reference, and equality is
//! asserted over the full structure, not summaries.

use sb_workloads::{
    generate, generate_with, spec2017_profiles, spectre_v1_kernel, ssb_kernel, GeneratorKind,
};

/// Batched == reference over the full SPEC2017 profile set, across several
/// lengths and seeds (including a length straddling the RNG block size and
/// the grid's default seed derivation range).
#[test]
fn batched_generator_matches_reference_across_suite() {
    let points: [(usize, u64); 3] = [(512, 1), (3_000, 0xC0FFEE), (9_001, 2025)];
    for profile in spec2017_profiles() {
        for (len, seed) in points {
            let batched = generate_with(GeneratorKind::Batched, &profile, len, seed);
            let reference = generate_with(GeneratorKind::Reference, &profile, len, seed);
            assert_eq!(
                batched, reference,
                "{} diverged at len={len} seed={seed}",
                profile.name
            );
        }
    }
}

/// The public `generate` entry point is the batched path and still matches
/// the reference oracle.
#[test]
fn default_entry_point_matches_reference() {
    for profile in spec2017_profiles().iter().take(4) {
        let default = generate(profile, 2_500, 7);
        let reference = generate_with(GeneratorKind::Reference, profile, 2_500, 7);
        assert_eq!(default, reference, "{}", profile.name);
    }
}

/// Every profile round-trips through the binary codec unchanged.
#[test]
fn generated_traces_round_trip_through_codec() {
    for profile in spec2017_profiles() {
        let t = generate(&profile, 1_500, 42);
        let decoded = sb_isa::decode_trace(&sb_isa::encode_trace(&t)).expect("decodes");
        assert_eq!(t, decoded, "{}", profile.name);
    }
}

/// The attack kernels carry wrong-path blocks (the transient micro-ops);
/// the codec must preserve them exactly — a dropped or reordered
/// wrong-path op would silently defang the security experiments.
#[test]
fn attack_kernels_round_trip_with_wrong_paths() {
    for secret in [0usize, 7, 15] {
        for kernel in [spectre_v1_kernel(secret), ssb_kernel(secret)] {
            let decoded =
                sb_isa::decode_trace(&sb_isa::encode_trace(&kernel.trace)).expect("decodes");
            assert_eq!(kernel.trace, decoded, "codec broke {}", kernel.trace.name());
        }
    }
}
