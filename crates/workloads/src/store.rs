//! Content-addressed file naming for persisted simulation artifacts.
//!
//! [`cache_entry_stem`] is the filename stem `sb-experiments`' stats store
//! keys its entries by. [`TraceStore`] names trace files with the same
//! stem; the simulator no longer reads or writes them (generating a trace
//! in-process measured faster than loading it back), and it stays, with
//! byte-for-byte the same paths, only for the repository benchmark's
//! traced replay, which writes and reads those files itself.

use sb_isa::TRACE_FORMAT_VERSION;
use std::path::{Path, PathBuf};

/// The filename stem every content-addressed store in this workspace keys
/// entries by: sanitized workload name, ops, seed and content
/// fingerprint. Distinct raw names that sanitize identically get a hash
/// suffix so the two keys don't perpetually evict each other. Callers
/// append their own `-v{version}.{ext}` suffix ([`TraceStore::path_for`];
/// `sb-experiments`' stats store does the same with its own format
/// version, so trace keys and stats keys stay structurally identical).
#[must_use]
pub fn cache_entry_stem(name: &str, ops: usize, seed: u64, fp: u64) -> String {
    let mut sanitized: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if sanitized != name {
        #[allow(clippy::cast_possible_truncation)]
        let name_hash = crate::fnv::hash_str(name) as u32;
        sanitized.push_str(&format!("_{name_hash:08x}"));
    }
    format!("{sanitized}-{ops}-{seed:016x}-{fp:016x}")
}

/// A directory of serialized traces keyed by
/// `(workload name, ops, seed, content fingerprint, format version)`.
///
/// Only the naming is left: the repository benchmark's harness
/// (`benchmark/harness/src/layers.rs`) calls [`TraceStore::new`],
/// [`TraceStore::dir`] and [`TraceStore::path_for`] to lay out the trace
/// files of its traced replay. Nothing in the workspace reads or writes
/// these files; the type goes when the harness stops calling it.
#[derive(Clone, Debug)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// A store rooted at `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceStore { dir: dir.into() }
    }

    /// The directory this store names files in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path for a `(name, ops, seed, fingerprint)` key under the
    /// current format version. `fp` is a content fingerprint of whatever
    /// besides `(ops, seed)` determines the trace — for profile workloads,
    /// [`crate::WorkloadProfile::fingerprint`]; `0` for traces whose
    /// content is fixed by the build (e.g. attack kernels).
    #[must_use]
    pub fn path_for(&self, name: &str, ops: usize, seed: u64, fp: u64) -> PathBuf {
        let stem = cache_entry_stem(name, ops, seed, fp);
        self.dir
            .join(format!("{stem}-v{TRACE_FORMAT_VERSION}.sbtrace"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::spec2017_profiles;

    #[test]
    fn keys_are_disjoint_per_name_ops_seed_and_fingerprint() {
        let store = TraceStore::new("/tmp/sb-trace-store-keys");
        let p = spec2017_profiles();
        let fp = p[0].fingerprint();
        let a = store.path_for(p[0].name, 100, 1, fp);
        assert_ne!(a, store.path_for(p[1].name, 100, 1, p[1].fingerprint()));
        assert_ne!(a, store.path_for(p[0].name, 101, 1, fp));
        assert_ne!(a, store.path_for(p[0].name, 100, 2, fp));
        assert_ne!(a, store.path_for(p[0].name, 100, 1, fp ^ 1));
        assert!(a
            .to_string_lossy()
            .contains(&format!("-v{TRACE_FORMAT_VERSION}.sbtrace")));
        assert!(a.starts_with(store.dir()));
    }

    #[test]
    fn profile_changes_change_the_fingerprint() {
        // A recalibrated profile must key to a different entry, so a
        // persisted stats store can never serve results simulated from
        // old parameters.
        let mut p = spec2017_profiles()[0];
        let before = p.fingerprint();
        p.load_frac += 0.01;
        assert_ne!(before, p.fingerprint());
        let mut q = spec2017_profiles()[0];
        q.footprint *= 2;
        assert_ne!(before, q.fingerprint());
    }

    #[test]
    fn sanitized_name_collisions_stay_disjoint() {
        // Distinct raw names with identical sanitized forms must not share
        // a file.
        let a = cache_entry_stem("spectre v1", 100, 1, 0);
        let b = cache_entry_stem("spectre_v1", 100, 1, 0);
        let c = cache_entry_stem("spectre:v1", 100, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(b, "spectre_v1-100-0000000000000001-0000000000000000");
    }
}
