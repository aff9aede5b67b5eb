//! Content-addressed trained-policy cache: never train the same agent
//! twice.
//!
//! Every learnable grid cell used to retrain its policy per
//! `(policy, scenario, seed)` — the dominant cost of wide grids and
//! repeated CI runs. This module gives [`crate::harness::EvalPlan`] a
//! disk cache keyed by a **content hash of everything that determines
//! the trained weights**: the (normalized) [`PolicySpec`], the resolved
//! training [`Curriculum`], the grid seed, the (normalized)
//! [`TrainerConfig`], any [`DfpConfig`] override, and the resolved
//! system/simulator parameters. Two cells that would train bit-identical
//! agents share one cache entry; any config change produces a new key.
//!
//! # Hashing
//!
//! The vendored serde is a no-op, so there is no generic serializer to
//! lean on. Instead each component is rendered through
//! its *derived* `Debug` representation — which recursively covers every
//! field, so adding a field to any config type automatically changes the
//! key — and folded, with a field label, into a 128-bit FNV-1a hash.
//! Rust's float `Debug` output is round-trip exact, so distinct configs
//! cannot collide by formatting.
//!
//! # Normalization
//!
//! Fields that provably do **not** affect trained weights are stripped
//! before hashing so they cannot fragment the cache:
//! * `TrainerConfig::workers` — worker count is a wall-clock knob
//!   (pinned bit-identical by the engine's tests);
//! * an MRSch display tag — naming only.
//!
//! # Entry format
//!
//! `<dir>/<32-hex-digit-key>.bin`, an `mrsch_snapshot` frame (magic
//! `MRPC`, version, length framing, trailing FNV checksum) whose payload
//! is the full 128-bit key (so a hash-named file renamed by hand is
//! still detected) followed by the policy's `mrsch_nn::checkpoint` blob
//! — which carries its own magic and parameter-shape fingerprint.
//! Any validation failure is treated as a miss: the cell retrains and
//! overwrites the entry.

use mrsch::prelude::*;
use std::fmt::Debug;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::registry::PolicySpec;

/// Frame magic of the cache entry format.
const ENTRY_MAGIC: [u8; 4] = *b"MRPC";

/// Entry format version (framed entries start at 2).
const ENTRY_VERSION: u16 = 2;

/// Schema tag folded into every key: bump to invalidate all entries
/// when the key derivation or entry format changes.
const SCHEMA_TAG: &str = "mrsch-policy-cache/v1";

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// A 128-bit content key addressing one trained policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// 32-hex-digit file stem.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Incremental 128-bit FNV-1a over labeled `Debug`-rendered fields —
/// the hand-rolled canonical encoding standing in for the no-op vendored
/// serde.
#[derive(Clone, Debug)]
pub struct KeyHasher {
    hash: u128,
    scratch: String,
}

impl KeyHasher {
    /// A hasher seeded with the cache schema tag.
    pub fn new() -> Self {
        let mut h = Self { hash: FNV128_OFFSET, scratch: String::new() };
        h.update(SCHEMA_TAG.as_bytes());
        h
    }

    /// Fold raw bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u128;
            self.hash = self.hash.wrapping_mul(FNV128_PRIME);
        }
        // Length-prefix framing (trailer variant): two adjacent fields
        // cannot collide by moving bytes across their boundary.
        let len = bytes.len() as u64;
        for b in len.to_le_bytes() {
            self.hash ^= b as u128;
            self.hash = self.hash.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Fold one labeled field, rendered through `Debug`.
    pub fn field(&mut self, label: &str, value: &impl Debug) {
        self.update(label.as_bytes());
        self.scratch.clear();
        write!(self.scratch, "{value:?}").expect("writing to String cannot fail");
        let rendered = std::mem::take(&mut self.scratch);
        self.update(rendered.as_bytes());
        self.scratch = rendered;
    }

    /// The finished key.
    pub fn finish(self) -> CacheKey {
        CacheKey(self.hash)
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// The content key of one trained policy. Covers everything the trained
/// weights depend on; normalizes everything they provably don't (see the
/// module docs).
pub fn cache_key(
    spec: &PolicySpec,
    system: &SystemConfig,
    params: SimParams,
    seed: u64,
    curriculum: &Curriculum,
    trainer: &TrainerConfig,
    dfp_config: Option<&DfpConfig>,
) -> CacheKey {
    let mut spec = spec.clone();
    if let PolicySpec::Mrsch(m) = &mut spec {
        m.tag = None;
    }
    let mut trainer = trainer.clone();
    trainer.workers = 1;
    let mut h = KeyHasher::new();
    h.field("spec", &spec);
    h.field("system", system);
    h.field("params", &params);
    h.field("seed", &seed);
    h.field("curriculum", curriculum);
    h.field("trainer", &trainer);
    h.field("dfp_config", &dfp_config);
    h.finish()
}

/// A directory of content-addressed trained-policy checkpoints, with
/// hit/miss/store counters (atomics: the harness consults the cache from
/// its grid workers).
#[derive(Debug)]
pub struct PolicyCache {
    dir: PathBuf,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stores: AtomicUsize,
}

impl PolicyCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            stores: AtomicUsize::new(0),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path of `key`.
    pub fn path_for(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.bin", key.hex()))
    }

    /// Read and validate the entry for `key`, returning its checkpoint
    /// payload. Does **not** touch the counters — a payload that later
    /// fails to load into the rebuilt policy must still count as a miss,
    /// so the caller records the outcome via [`PolicyCache::note_hit`] /
    /// [`PolicyCache::note_miss`] once it knows it.
    pub fn read(&self, key: CacheKey) -> Option<Vec<u8>> {
        let data = std::fs::read(self.path_for(key)).ok()?;
        let (_version, payload) = mrsch_snapshot::unframe(ENTRY_MAGIC, &data).ok()?;
        let mut r = mrsch_snapshot::Reader::new(payload);
        let lo = r.get_u64().ok()?;
        let hi = r.get_u64().ok()?;
        if ((hi as u128) << 64 | lo as u128) != key.0 {
            return None;
        }
        Some(r.take(r.remaining()).ok()?.to_vec())
    }

    /// Write the entry for `key`. Best-effort: an unwritable cache
    /// degrades to always-miss instead of failing the run.
    pub fn store(&self, key: CacheKey, payload: &[u8]) {
        let mut w = mrsch_snapshot::Writer::with_capacity(16 + payload.len());
        w.put_u64(key.0 as u64);
        w.put_u64((key.0 >> 64) as u64);
        w.put_raw(payload);
        let data = mrsch_snapshot::frame(ENTRY_MAGIC, ENTRY_VERSION, &w.into_bytes());
        if std::fs::create_dir_all(&self.dir).is_ok()
            && std::fs::write(self.path_for(key), data).is_ok()
        {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a successful cache hit (entry read *and* loaded).
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a miss (no entry, or the entry failed validation/loading).
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Successful hits so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses (= policies actually trained) so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries written so far.
    pub fn stores(&self) -> usize {
        self.stores.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MrschSpec;

    fn temp_cache(tag: &str) -> PolicyCache {
        let dir = std::env::temp_dir()
            .join(format!("mrsch-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PolicyCache::new(dir)
    }

    fn key_with(
        mutate: impl FnOnce(
            &mut PolicySpec,
            &mut SystemConfig,
            &mut SimParams,
            &mut u64,
            &mut Curriculum,
            &mut TrainerConfig,
        ),
    ) -> CacheKey {
        let mut spec = PolicySpec::mrsch();
        let mut system = SystemConfig::two_resource(16, 8);
        let mut params = SimParams::new(4, true);
        let mut seed = 7;
        let scenario = Scenario::new(
            "clean",
            JobSource::Theta(ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(10) }),
            WorkloadSpec::s1(),
            params,
        );
        let mut curriculum = Curriculum::new().phase(CurriculumPhase::new(scenario, 3));
        let mut trainer = TrainerConfig::default();
        mutate(&mut spec, &mut system, &mut params, &mut seed, &mut curriculum, &mut trainer);
        cache_key(&spec, &system, params, seed, &curriculum, &trainer, None)
    }

    #[test]
    fn every_config_field_changes_the_key() {
        let base = key_with(|_, _, _, _, _, _| {});
        assert_eq!(base, key_with(|_, _, _, _, _, _| {}), "key must be deterministic");
        let variants = [
            key_with(|spec, _, _, _, _, _| {
                *spec = PolicySpec::Mrsch(MrschSpec {
                    state_module: StateModuleKind::Cnn,
                    tag: None,
                })
            }),
            key_with(|spec, _, _, _, _, _| *spec = PolicySpec::ScalarRl),
            key_with(|_, system, _, _, _, _| *system = SystemConfig::two_resource(32, 8)),
            key_with(|_, _, params, _, _, _| *params = SimParams::new(8, true)),
            key_with(|_, _, _, seed, _, _| *seed = 8),
            key_with(|_, _, _, _, cur, _| {
                *cur = cur.clone().phase(CurriculumPhase::new(
                    Scenario::new(
                        "extra",
                        JobSource::Theta(ThetaConfig {
                            machine_nodes: 16,
                            ..ThetaConfig::scaled(10)
                        }),
                        WorkloadSpec::s1(),
                        SimParams::new(4, true),
                    ),
                    1,
                ))
            }),
            key_with(|_, _, _, _, _, tr| tr.round_size = 8),
            key_with(|_, _, _, _, _, tr| tr.batches_per_episode = 16),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} must change the key");
        }
        // And a DfpConfig override changes it too.
        let spec = PolicySpec::mrsch();
        let system = SystemConfig::two_resource(16, 8);
        let params = SimParams::new(4, true);
        let cur = Curriculum::new().phase(CurriculumPhase::new(
            Scenario::new(
                "clean",
                JobSource::Theta(ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(10) }),
                WorkloadSpec::s1(),
                params,
            ),
            3,
        ));
        let trainer = TrainerConfig::default();
        let cfg = DfpConfig::scaled(1, 2, 4);
        let with_cfg = cache_key(&spec, &system, params, 7, &cur, &trainer, Some(&cfg));
        assert_ne!(base, with_cfg);
    }

    #[test]
    fn wall_clock_knobs_do_not_change_the_key() {
        let base = key_with(|_, _, _, _, _, _| {});
        // Worker count is proven bit-identical by the engine.
        assert_eq!(base, key_with(|_, _, _, _, _, tr| tr.workers = 4));
        // An MRSch display tag renames, it doesn't retrain.
        assert_eq!(
            base,
            key_with(|spec, _, _, _, _, _| *spec = PolicySpec::mrsch_tagged("renamed"))
        );
    }

    #[test]
    fn entries_round_trip_and_validate() {
        let cache = temp_cache("roundtrip");
        let key = CacheKey(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        assert!(cache.read(key).is_none(), "empty cache must miss");
        cache.store(key, b"payload-bytes");
        assert_eq!(cache.read(key).as_deref(), Some(&b"payload-bytes"[..]));
        assert_eq!(cache.stores(), 1);
        // A renamed entry (key mismatch in the header) is rejected.
        let other = CacheKey(key.0 ^ 1);
        std::fs::copy(cache.path_for(key), cache.path_for(other)).unwrap();
        assert!(cache.read(other).is_none(), "renamed entry must be a miss");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Any flipped byte is a miss, not a bad load — and so is an
    /// unframed `MRPC1\n` entry, which carries no checksum to verify.
    #[test]
    fn corrupted_framed_entry_is_a_miss() {
        let cache = temp_cache("corrupt");
        let key = CacheKey(42);
        cache.store(key, b"precious-weights");
        let path = cache.path_for(key);
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 12; // inside the payload, before the checksum
        data[last] ^= 0x80;
        std::fs::write(&path, data).unwrap();
        assert!(cache.read(key).is_none(), "checksum catches the flip");
        let mut unframed = b"MRPC1\n".to_vec();
        unframed.extend_from_slice(&key.0.to_le_bytes());
        unframed.extend_from_slice(b"precious-weights");
        std::fs::write(&path, unframed).unwrap();
        assert!(cache.read(key).is_none(), "an unframed entry must be a miss");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
