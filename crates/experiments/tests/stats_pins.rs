//! Absolute SimStats pins. `sb-uarch`'s `golden_stats` suite is
//! differential (event wheel == reference scheduler), so a change to code
//! both schedulers share — the trace representation, the rename stage —
//! could shift every statistic and still pass it. These pins fix the exact
//! counters of a small basket: 4 schemes × {small, mega, gem5-stt} ×
//! {505.mcf, 548.exchange2} at a few thousand micro-ops, each as the
//! FNV-1a digest of its stats-store encoding, plus STT-Rename's longest
//! same-cycle rename chain on Mega.
//!
//! A pin moves only when the simulated machine changes on purpose; a
//! speed-up of the simulator must leave every one of them alone.

use sb_core::Scheme;
use sb_experiments::stats_store::encode_stats;
use sb_uarch::{Core, CoreConfig};
use sb_workloads::{generate, spec2017_profiles};

const OPS: usize = 4_000;
const SEED: u64 = 0x5b_2025;
const MAX_CYCLES: u64 = 10_000_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `(config, benchmark, scheme)` → digest of the run's encoded SimStats.
const PINS: [(&str, &str, Scheme, u64); 24] = [
    ("small", "505.mcf", Scheme::Baseline, 0xc04e_490b_1117_b919),
    ("small", "505.mcf", Scheme::SttRename, 0x41fa_a7d6_fba5_5cb3),
    ("small", "505.mcf", Scheme::SttIssue, 0x9c1e_15e7_8571_cf74),
    ("small", "505.mcf", Scheme::Nda, 0xd2e6_8074_958d_8339),
    (
        "small",
        "548.exchange2",
        Scheme::Baseline,
        0x0db0_f197_9675_b44d,
    ),
    (
        "small",
        "548.exchange2",
        Scheme::SttRename,
        0xf765_3db5_82f6_6adb,
    ),
    (
        "small",
        "548.exchange2",
        Scheme::SttIssue,
        0x7e22_168c_1b03_7605,
    ),
    ("small", "548.exchange2", Scheme::Nda, 0x79c1_32d7_48b4_7518),
    ("mega", "505.mcf", Scheme::Baseline, 0x5c81_5b40_d4fc_f15c),
    ("mega", "505.mcf", Scheme::SttRename, 0x7274_d992_ddff_d3a7),
    ("mega", "505.mcf", Scheme::SttIssue, 0x4897_c65e_3884_d5d7),
    ("mega", "505.mcf", Scheme::Nda, 0x0dbd_4dcf_d21e_3a1c),
    (
        "mega",
        "548.exchange2",
        Scheme::Baseline,
        0x8a5d_e192_65d2_d340,
    ),
    (
        "mega",
        "548.exchange2",
        Scheme::SttRename,
        0x75c2_9b99_0b07_52dc,
    ),
    (
        "mega",
        "548.exchange2",
        Scheme::SttIssue,
        0x2a18_60cc_7561_6311,
    ),
    ("mega", "548.exchange2", Scheme::Nda, 0x4531_e60f_05db_d5fc),
    (
        "gem5-stt",
        "505.mcf",
        Scheme::Baseline,
        0x35f2_7da8_739d_d8b4,
    ),
    (
        "gem5-stt",
        "505.mcf",
        Scheme::SttRename,
        0x4d22_0687_9a60_58e3,
    ),
    (
        "gem5-stt",
        "505.mcf",
        Scheme::SttIssue,
        0xe02c_697e_54f2_19df,
    ),
    ("gem5-stt", "505.mcf", Scheme::Nda, 0x8b95_907f_e3f7_c3c0),
    (
        "gem5-stt",
        "548.exchange2",
        Scheme::Baseline,
        0x13cb_61be_1bbb_0a56,
    ),
    (
        "gem5-stt",
        "548.exchange2",
        Scheme::SttRename,
        0x0535_61a0_2562_1483,
    ),
    (
        "gem5-stt",
        "548.exchange2",
        Scheme::SttIssue,
        0x13de_acd1_10aa_7094,
    ),
    (
        "gem5-stt",
        "548.exchange2",
        Scheme::Nda,
        0x8c0a_2a4a_bf87_d346,
    ),
];

/// STT-Rename's longest rename chain on Mega, per benchmark.
const CHAIN_PINS: [(&str, u32); 2] = [("505.mcf", 4), ("548.exchange2", 4)];

fn run(config: &CoreConfig, bench: &str, scheme: Scheme) -> Core {
    let profile = spec2017_profiles()
        .iter()
        .find(|p| p.name == bench)
        .copied()
        .expect("pinned benchmark is a SPEC2017 profile");
    let trace = generate(&profile, OPS, SEED);
    let mut core = Core::with_scheme(config.clone(), scheme, trace);
    core.run(MAX_CYCLES);
    assert!(
        core.is_done(),
        "{bench} on {} ({scheme}) did not finish",
        config.name
    );
    core
}

fn config(name: &str) -> CoreConfig {
    match name {
        "small" => CoreConfig::small(),
        "mega" => CoreConfig::mega(),
        "gem5-stt" => CoreConfig::gem5_stt(),
        other => panic!("no pinned config {other}"),
    }
}

#[test]
fn simstats_digests_match_their_pins() {
    let mut wrong = Vec::new();
    for (cfg, bench, scheme, pin) in PINS {
        let core = run(&config(cfg), bench, scheme);
        let got = fnv1a(&encode_stats(bench, core.stats()));
        if got != pin {
            wrong.push(format!(
                "({cfg:?}, {bench:?}, Scheme::{scheme:?}, {got:#018x}),"
            ));
        }
    }
    assert!(wrong.is_empty(), "SimStats moved:\n{}", wrong.join("\n"));
}

#[test]
fn stt_rename_chain_depth_matches_its_pin() {
    for (bench, pin) in CHAIN_PINS {
        let core = run(&CoreConfig::mega(), bench, Scheme::SttRename);
        assert_eq!(core.max_rename_chain(), pin, "{bench}");
    }
}
