//! Sharded, content-addressed LRU response cache.
//!
//! Keys are [`JobSpec::cache_key`](tauhls_core::jobspec::JobSpec::cache_key)
//! strings — the canonical compact rendering of the job spec, seed
//! included — so a hit is guaranteed to carry the byte-identical body a
//! cold run would produce (the batch engine is bit-deterministic in the
//! spec). The key string itself is stored, never a digest, so two
//! distinct specs can never collide into one entry.
//!
//! Sixteen shards, selected by an FNV-1a hash of the key, keep lock
//! contention off the hot path. Each shard tracks recency with a
//! monotonically increasing stamp and evicts the smallest stamp until it
//! is back under its byte budget — O(entries) per eviction, which is
//! fine at the entry counts a response cache holds.
//!
//! Bodies are held LZ77-packed ([`pack`]) behind a constant dictionary:
//! rendered fir3 `/v1/simulate` and `/v1/resilience` bodies that every
//! served body's field names, indentation and spec keys can copy from. An
//! ewf resilience report packs to 22 % of its bytes (3,854 → 852; 1,392
//! without the dictionary) and an ewf simulate body to 21 % (1,010 →
//! 210; 492 without).
//! The budget and the byte counts still measure the unpacked payload, so
//! what is evicted when does not depend on how well a body packs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use tauhls_dfg::Fnv64;

const NUM_SHARDS: usize = 16;

#[derive(Debug)]
struct Entry {
    /// The body, [`pack`]ed.
    packed: Box<[u8]>,
    /// The body's unpacked length in bytes.
    len: usize,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, Entry>,
    bytes: usize,
    clock: u64,
}

impl Shard {
    fn evict_to(&mut self, budget: usize, evictions: &AtomicU64) {
        while self.bytes > budget && !self.entries.is_empty() {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = self.entries.remove(&oldest) {
                self.bytes -= oldest.len() + e.len;
                evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The service-wide response cache.
#[derive(Debug)]
pub struct Cache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Cache {
    /// A cache bounded at roughly `capacity_bytes` of key + body payload
    /// (split evenly across the shards; each shard keeps at least one
    /// entry, so a single oversized response still caches).
    pub fn new(capacity_bytes: usize) -> Self {
        Cache {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_budget: capacity_bytes / NUM_SHARDS,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> std::sync::MutexGuard<'_, Shard> {
        let idx = (Fnv64::of(key.as_bytes()) as usize) % NUM_SHARDS;
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a response body, refreshing its recency. Counts a hit or
    /// a miss.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let mut shard = self.shard(key);
        shard.clock += 1;
        let stamp = shard.clock;
        let body = shard.entries.get_mut(key).and_then(|entry| {
            entry.stamp = stamp;
            unpack(&entry.packed, entry.len)
        });
        drop(shard);
        let counter = if body.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        body
    }

    /// Inserts (or refreshes) a response body, evicting least-recently
    /// used entries until the shard is back under budget.
    pub fn insert(&self, key: String, body: Arc<str>) {
        let body_len = body.len();
        let added = key.len() + body_len;
        let packed = pack(body.as_bytes());
        let mut shard = self.shard(&key);
        shard.clock += 1;
        let stamp = shard.clock;
        let entry = Entry {
            packed,
            len: body_len,
            stamp,
        };
        if let Some(old) = shard.entries.insert(key, entry) {
            // The key's bytes stay accounted; swap only the body's.
            shard.bytes -= old.len;
            shard.bytes += body_len;
        } else {
            shard.bytes += added;
        }
        // Leave the entry just inserted (largest stamp) in place even if
        // it alone exceeds the budget: evict_to never empties the map
        // below one entry unless the budget fits.
        let budget = self.shard_budget.max(added);
        shard.evict_to(budget, &self.evictions);
    }

    /// Cache hits since start.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since start.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay under the byte budget.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current payload bytes across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).bytes)
            .sum()
    }

    /// Current entry count across all shards.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }
}

/// Longest literal run one token carries.
const MAX_LITERALS: usize = 0x80;
/// Shortest and longest back-reference one token copies.
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 0x7F;
/// Bits of the hash indexing [`pack`]'s table of earlier positions.
const HASH_BITS: u32 = 12;

/// The window [`pack`] and [`unpack`] start from: rendered fir3
/// `/v1/simulate` and `/v1/resilience` bodies. Changing it changes every
/// packing, never a body.
const DICT: &[u8] = include_bytes!("cache_dict.txt");

/// The table slot of the 4-byte sequence `b` starts with.
fn slot(b: &[u8]) -> usize {
    let word = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// [`pack`]'s table with every dictionary position hashed, built once.
fn primed_table() -> &'static [u32] {
    static TABLE: OnceLock<Box<[u32]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut last = vec![0u32; 1 << HASH_BITS];
        for k in 0..(DICT.len() + 1).saturating_sub(MIN_MATCH) {
            last[slot(&DICT[k..])] = k as u32 + 1;
        }
        last.into_boxed_slice()
    })
}

/// LZ77-packs `data` into tokens: a byte `t < 0x80` is followed by
/// `t + 1` literal bytes; a byte `t >= 0x80` copies `t - 0x80 + 4` bytes
/// from a two-byte little-endian distance back in the unpacked output,
/// which [`DICT`] precedes. Greedy, with one remembered position per hash
/// slot.
fn pack(data: &[u8]) -> Box<[u8]> {
    fn literals(out: &mut Vec<u8>, run: &[u8]) {
        for chunk in run.chunks(MAX_LITERALS) {
            out.push((chunk.len() - 1) as u8);
            out.extend_from_slice(chunk);
        }
    }
    let mut out = Vec::with_capacity(data.len() / 2);
    let data = [DICT, data].concat();
    // Position + 1 of the last sequence seen per slot (0 = none).
    let mut last = primed_table().to_vec();
    let (mut i, mut run_start) = (DICT.len(), DICT.len());
    while i + MIN_MATCH <= data.len() {
        let earlier = std::mem::replace(&mut last[slot(&data[i..])], i as u32 + 1);
        let j = match (earlier as usize).checked_sub(1) {
            Some(j) if i - j <= usize::from(u16::MAX) && data[j..j + 4] == data[i..i + 4] => j,
            _ => {
                i += 1;
                continue;
            }
        };
        let mut len = MIN_MATCH;
        while len < MAX_MATCH && i + len < data.len() && data[j + len] == data[i + len] {
            len += 1;
        }
        literals(&mut out, &data[run_start..i]);
        out.push(0x80 + (len - MIN_MATCH) as u8);
        out.extend_from_slice(&((i - j) as u16).to_le_bytes());
        for k in i + 1..(i + len).min(data.len() + 1 - MIN_MATCH) {
            last[slot(&data[k..])] = k as u32 + 1;
        }
        i += len;
        run_start = i;
    }
    literals(&mut out, &data[run_start..]);
    out.into_boxed_slice()
}

/// Unpacks a [`pack`]ed body of `len` bytes; `None` if the tokens do not
/// decode to UTF-8.
fn unpack(packed: &[u8], len: usize) -> Option<Arc<str>> {
    let window = unpack_window(packed, len)?;
    std::str::from_utf8(&window[DICT.len()..])
        .ok()
        .map(Arc::from)
}

/// Decodes `packed` after [`DICT`]: the dictionary followed by the body;
/// `None` on a truncated token or a distance reaching before the
/// dictionary.
fn unpack_window(packed: &[u8], len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(DICT.len() + len);
    out.extend_from_slice(DICT);
    let mut i = 0;
    while let Some(&token) = packed.get(i) {
        if token < 0x80 {
            let end = i + 2 + usize::from(token);
            out.extend_from_slice(packed.get(i + 1..end)?);
            i = end;
        } else {
            let dist = u16::from_le_bytes([*packed.get(i + 1)?, *packed.get(i + 2)?]);
            let start = (out.len().checked_sub(usize::from(dist))).filter(|_| dist > 0)?;
            for k in start..start + usize::from(token - 0x80) + MIN_MATCH {
                out.push(out[k]);
            }
            i += 3;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn get_after_insert_hits_and_counts() {
        let c = Cache::new(1 << 20);
        assert!(c.get("k").is_none());
        c.insert("k".to_string(), body("v"));
        assert_eq!(c.get("k").as_deref(), Some("v"));
        assert_eq!((c.hit_count(), c.miss_count()), (1, 1));
        assert_eq!(c.entries(), 1);
        assert_eq!(c.bytes(), 2);
    }

    #[test]
    fn eviction_is_least_recently_used_and_counted() {
        // Single-shard-sized budget: craft keys that land in one shard by
        // brute force, or simpler: tiny global budget so every shard's
        // budget is tiny.
        let c = Cache::new(0); // per-shard budget 0 → keep at most the newest entry
        c.insert("a".to_string(), body("1111"));
        c.insert("a2".to_string(), body("2222"));
        // Each shard holds at most its newest entry; total evictions grow
        // whenever two keys share a shard or an insert follows another.
        c.insert("a".to_string(), body("3333"));
        assert!(c.eviction_count() <= 3);
        assert_eq!(c.get("a").as_deref(), Some("3333"));
    }

    #[test]
    fn recency_refresh_protects_hot_entries() {
        // All keys in one shard is not guaranteed, so test the shard
        // logic directly.
        let mut shard = Shard::default();
        let evictions = AtomicU64::new(0);
        for (i, k) in ["cold", "hot"].iter().enumerate() {
            shard.clock = i as u64 + 1;
            shard.entries.insert(
                (*k).to_string(),
                Entry {
                    packed: pack(b"xxxx"),
                    len: 4,
                    stamp: i as u64 + 1,
                },
            );
            shard.bytes += k.len() + 4;
        }
        // Touch "cold" so "hot" becomes the LRU victim.
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(e) = shard.entries.get_mut("cold") {
            e.stamp = stamp;
        }
        shard.evict_to(9, &evictions);
        assert!(shard.entries.contains_key("cold"));
        assert!(!shard.entries.contains_key("hot"));
        assert_eq!(evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn oversized_single_entry_still_caches() {
        let c = Cache::new(8);
        let big = "x".repeat(4096);
        c.insert("big".to_string(), body(&big));
        assert_eq!(c.get("big").map(|b| b.len()), Some(4096));
    }

    #[test]
    fn packed_bodies_round_trip() {
        let report = (0..40)
            .map(|i| {
                format!(
                    "  {{\n    \"kind\": \"k{i}\",\n    \"trials\": {}\n  }}",
                    i * 37
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let mut noise = String::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            noise.push(char::from(b' ' + (x % 4) as u8));
        }
        let cases = [
            String::new(),
            "v".to_string(),
            "abcd".to_string(),
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".repeat(20),
            "µ-ΔΩ ✓ ünïcödé ".repeat(30),
            "x".repeat(70_000) + "tail",
            report.clone(),
            noise,
        ];
        for text in cases {
            let packed = pack(text.as_bytes());
            assert_eq!(unpack(&packed, text.len()).as_deref(), Some(text.as_str()));
        }
        // Pretty JSON's repeated keys and indentation pack well.
        assert!(pack(report.as_bytes()).len() * 2 < report.len());
    }

    #[test]
    fn arbitrary_bytes_round_trip() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..300 {
            let len = (next() % 9000) as usize;
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                match next() % 4 {
                    // Raw noise, a dictionary slice, or a repeat of what
                    // came before: literals, dictionary copies and
                    // overlapping copies.
                    0 => data.push(next() as u8),
                    1 => {
                        let at = (next() as usize) % DICT.len();
                        let n = (next() as usize % 200).min(DICT.len() - at);
                        data.extend_from_slice(&DICT[at..at + n]);
                    }
                    2 if !data.is_empty() => {
                        let at = (next() as usize) % data.len();
                        let n = next() as usize % 300;
                        for k in 0..n {
                            data.push(data[at + k]);
                        }
                    }
                    _ => data.extend_from_slice(&next().to_le_bytes()[..(case % 8)]),
                }
            }
            let window = unpack_window(&pack(&data), data.len());
            assert_eq!(window.as_deref().map(|w| &w[DICT.len()..]), Some(&data[..]));
        }
    }

    /// One rendered response body per endpoint.
    fn rendered_bodies() -> Vec<String> {
        use tauhls_core::jobspec::{Endpoint, JobSpec};
        use tauhls_json::Json;
        use tauhls_sim::BatchRunner;
        [
            (Endpoint::Simulate, r#"{"dfg":"fir5","trials":30,"seed":3}"#),
            (Endpoint::Table2, r#"{"trials":10,"seed":1}"#),
            (
                Endpoint::Resilience,
                r#"{"dfg":"iir2","trials":20,"seed":1,"styles":"dist,cent,elastic"}"#,
            ),
            (Endpoint::Synth, r#"{"dfg":"fir3"}"#),
            (Endpoint::Area, r#"{"dfg":"fir3"}"#),
            (
                Endpoint::Explore,
                r#"{"dfg":"fir3","max_muls":1,"max_adds":1,"trials":20,"p":[0.5]}"#,
            ),
        ]
        .into_iter()
        .map(|(endpoint, spec)| {
            let spec = Json::parse(spec).expect("spec parses");
            let job = JobSpec::from_json(endpoint, &spec).expect("spec is valid");
            let (body, _) = job
                .run_with(&BatchRunner::serial(), None)
                .expect("job runs");
            body.to_pretty()
        })
        .collect()
    }

    #[test]
    fn rendered_bodies_of_every_endpoint_round_trip() {
        for text in rendered_bodies() {
            let packed = pack(text.as_bytes());
            assert_eq!(unpack(&packed, text.len()).as_deref(), Some(text.as_str()));
            assert!(packed.len() < text.len(), "{text}");
        }
    }

    #[test]
    fn dictionary_packs_a_resilience_report_to_under_a_third() {
        use tauhls_core::jobspec::{Endpoint, JobSpec};
        use tauhls_json::Json;
        use tauhls_sim::BatchRunner;
        let spec = r#"{"dfg":"ewf","trials":200,"seed":2003,"styles":"dist,cent,elastic"}"#;
        let spec = Json::parse(spec).expect("spec parses");
        let job = JobSpec::from_json(Endpoint::Resilience, &spec).expect("spec is valid");
        let (body, _) = job
            .run_with(&BatchRunner::serial(), None)
            .expect("job runs");
        let text = body.to_pretty();
        let packed = pack(text.as_bytes());
        assert!(
            packed.len() * 10 <= text.len() * 3,
            "{} of {} bytes",
            packed.len(),
            text.len()
        );
        assert_eq!(unpack(&packed, text.len()).as_deref(), Some(text.as_str()));
    }

    #[test]
    fn corrupt_packing_reads_as_absent() {
        // A copy may reach into the dictionary, never before it.
        let before_dict = (DICT.len() + 2) as u16;
        let [lo, hi] = before_dict.to_le_bytes();
        for bad in [
            &[0x05, b'a'][..],
            &[0x80, 0, 0],
            &[0x80, 1],
            &[0x00, b'a', 0x80, lo, hi],
            &[0x00, 0xFF],
        ] {
            assert_eq!(unpack(bad, 8), None, "{bad:?}");
        }
    }
}
