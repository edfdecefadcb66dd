//! Property tests for the SBTR trace codec (via the offline proptest
//! shim): any generated trace round-trips through encode/decode
//! bit-exactly, any single-byte corruption or truncation is detected, and
//! no input — arbitrary bytes, or a record rewritten under a recomputed
//! checksum — panics the decoder or yields a trace that breaks the
//! `MicroOp` invariants the simulator relies on.

use proptest::prelude::*;
use sb_isa::{decode_trace, encode_trace, MicroOp, OpClass, Trace, TRACE_MAGIC};
use sb_workloads::{generate, spec2017_profiles, spectre_v1_kernel, ssb_kernel};

/// The format's documented checksum: a word-folded FNV over the payload
/// (everything after the 16-byte header), length mixed in first.
fn checksum(payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (payload.len() as u64).wrapping_mul(PRIME);
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }
    h ^ (h >> 32)
}

/// Rewrites the stored checksum so a mutated payload passes the integrity
/// check and reaches structural validation.
fn reseal(bytes: &mut [u8]) {
    let sum = checksum(&bytes[16..]);
    bytes[8..16].copy_from_slice(&sum.to_le_bytes());
}

/// A memory access iff the op is a load or store; a control-flow outcome
/// iff it is a branch.
fn well_formed(op: &MicroOp) -> bool {
    op.mem.is_some() == matches!(op.class, OpClass::Load | OpClass::Store)
        && op.ctrl.is_some() == (op.class == OpClass::Branch)
}

fn all_well_formed(trace: &Trace) -> bool {
    trace.iter().all(well_formed)
        && trace
            .wrong_paths()
            .all(|(_, block)| block.ops.iter().all(well_formed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode ∘ decode is the identity on every generated trace.
    #[test]
    fn encode_decode_round_trips(
        profile_idx in 0usize..22,
        len in 16usize..600,
        seed in 0u64..1_000_000,
    ) {
        let profile = spec2017_profiles()[profile_idx];
        let trace = generate(&profile, len, seed);
        let bytes = encode_trace(&trace);
        let decoded = decode_trace(&bytes);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        prop_assert_eq!(trace, decoded.unwrap());
    }

    /// Attack kernels (wrong-path blocks included) round-trip too.
    #[test]
    fn kernel_encode_decode_round_trips(secret in 0usize..16, spectre in any::<bool>()) {
        let kernel = if spectre { spectre_v1_kernel(secret) } else { ssb_kernel(secret) };
        let decoded = decode_trace(&encode_trace(&kernel.trace));
        prop_assert!(decoded.is_ok());
        prop_assert_eq!(kernel.trace, decoded.unwrap());
    }

    /// Flipping any single byte of an encoded trace makes decode fail —
    /// nothing slips past the magic/version/checksum validation.
    #[test]
    fn any_byte_flip_is_detected(
        profile_idx in 0usize..22,
        len in 16usize..200,
        seed in 0u64..1_000_000,
        pos_draw in 0usize..1_000_000,
        mask in 1u8..255,
    ) {
        let profile = spec2017_profiles()[profile_idx];
        let mut bytes = encode_trace(&generate(&profile, len, seed));
        let pos = pos_draw % bytes.len();
        bytes[pos] ^= mask;
        prop_assert!(
            decode_trace(&bytes).is_err(),
            "flip of byte {pos} with mask {mask:#x} went undetected"
        );
    }

    /// Truncating an encoded trace at any point fails decode.
    #[test]
    fn truncation_is_detected(
        len in 16usize..200,
        seed in 0u64..1_000_000,
        keep_draw in 0usize..1_000_000,
    ) {
        let profile = spec2017_profiles()[0];
        let bytes = encode_trace(&generate(&profile, len, seed));
        let keep = keep_draw % bytes.len(); // strictly shorter than full
        prop_assert!(decode_trace(&bytes[..keep]).is_err(), "kept {keep} bytes");
    }

    /// Arbitrary bytes never panic the decoder, bare or behind a valid
    /// header and checksum; whatever decodes is well formed.
    #[test]
    fn arbitrary_bytes_never_panic_and_decode_well_formed(
        raw in prop::collection::vec(0u16..256, 0..400),
        version in 1u32..3,
    ) {
        let payload: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        prop_assert!(decode_trace(&payload).is_err() || payload.starts_with(&TRACE_MAGIC));
        let mut sealed = TRACE_MAGIC.to_vec();
        sealed.extend_from_slice(&version.to_le_bytes());
        sealed.extend_from_slice(&[0; 8]);
        sealed.extend_from_slice(&payload);
        reseal(&mut sealed);
        if let Ok(trace) = decode_trace(&sealed) {
            prop_assert!(all_well_formed(&trace), "{trace:?}");
        }
    }

    /// One record's class, flags and a register slot rewritten under a
    /// recomputed checksum: decode never panics, and a trace it accepts is
    /// well formed — a load without an address or an ALU op with a
    /// mispredicted outcome is rejected, not handed to the simulator.
    #[test]
    fn mutated_records_decode_well_formed_or_not_at_all(
        source in 0usize..24,
        record_draw in 0usize..1_000_000,
        class in 0u8..12,
        flags in 0u8..16,
        reg in (0usize..3, 0u16..256),
    ) {
        let trace = match source {
            22 => spectre_v1_kernel(record_draw % 16).trace,
            23 => ssb_kernel(record_draw % 16).trace,
            p => generate(&spec2017_profiles()[p], 120, record_draw as u64),
        };
        let mut bytes = encode_trace(&trace);
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let record_len = if version >= 2 { 30 } else { 14 };
        let first = 16 + 4 + trace.name().len() + 8;
        let at = first + (record_draw % trace.len()) * record_len;
        bytes[at] = class;
        bytes[at + 1] = flags;
        bytes[at + 2 + reg.0] = reg.1 as u8;
        reseal(&mut bytes);
        if let Ok(decoded) = decode_trace(&bytes) {
            prop_assert!(all_well_formed(&decoded), "record at byte {at} decoded ill-formed");
        }
    }
}
