//! Per-reader view over a shared [`Store`]: a seek decodes the one
//! pause it lands on, and the reader keeps just enough to make the next
//! seek cheap. Many readers can scrub one `Arc<Store>` concurrently;
//! each keeps its own caches and reports into its own [`obs::Registry`]:
//!
//! * `trace.seek_ns` — latency histogram of every `state_at` call;
//! * `trace.state_hits` — seeks answered from the decoded-state cache;
//! * `trace.state_decodes` — states parsed from their raw JSON (one per
//!   cache miss, never a whole segment);
//! * `trace.keyframe_decodes` / `trace.delta_decodes` — compressed
//!   records decompressed to reach those states;
//! * `trace.resident_bytes` — store + cache footprint of this reader.

use crate::store::parse_state;
use crate::Store;
use state::ProgramState;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Decoded states a reader keeps around: a seek followed by its
/// inspections, or a tool comparing a pause with its neighbours, hits.
const CACHE_STATES: usize = 8;

#[derive(Default)]
struct Cache {
    /// (pause, decoded state, raw JSON length), most recently used last.
    states: Vec<(u64, Arc<ProgramState>, usize)>,
    /// Raw JSON of the first `chain.len()` pauses of the segment starting
    /// at `chain_key`: the delta chain of the segment last seeked into.
    /// A later seek inside it decompresses only the records past its end,
    /// so forward steps cost one delta and backward steps none.
    chain_key: u64,
    chain: Vec<Vec<u8>>,
}

impl Cache {
    fn hit(&mut self, n: u64) -> Option<Arc<ProgramState>> {
        let i = self.states.iter().position(|(p, _, _)| *p == n)?;
        let entry = self.states.remove(i);
        let st = entry.1.clone();
        self.states.push(entry);
        Some(st)
    }

    fn bytes(&self) -> u64 {
        let chain: usize = self.chain.iter().map(Vec::capacity).sum();
        let states: usize = self.states.iter().map(|(_, _, len)| len).sum();
        (chain + states) as u64
    }
}

/// A cached, instrumented reader over a shared trace [`Store`].
pub struct TraceReader {
    store: Arc<Store>,
    /// `store.resident_bytes()`, taken once: a shared store is immutable.
    store_bytes: u64,
    obs: obs::Registry,
    cache: Mutex<Cache>,
}

impl TraceReader {
    /// Wraps a shared store; metrics go to `registry`.
    pub fn new(store: Arc<Store>, registry: obs::Registry) -> Self {
        let store_bytes = store.resident_bytes();
        registry.set_gauge("trace.resident_bytes", store_bytes);
        TraceReader {
            store,
            store_bytes,
            obs: registry,
            cache: Mutex::new(Cache::default()),
        }
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// This reader's registry.
    pub fn registry(&self) -> &obs::Registry {
        &self.obs
    }

    /// Bytes resident for this reader: the shared store plus this
    /// reader's delta chain and decoded states (each estimated at its
    /// raw JSON size).
    pub fn resident_bytes(&self) -> u64 {
        self.store_bytes + self.cache.lock().expect("trace reader cache").bytes()
    }

    /// State at pause `n`. O(1) on a cache hit. On a miss: O(1) index
    /// arithmetic to the enclosing keyframe, at most `keyframe_every`
    /// record decompressions (fewer when this reader's delta chain
    /// already covers part of the way), and one JSON parse.
    pub fn state_at(&self, n: u64) -> Result<Arc<ProgramState>, String> {
        let begin = Instant::now();
        if n >= self.store.len() {
            return Err(format!("pause {n} out of range (len {})", self.store.len()));
        }
        let mut cache = self.cache.lock().expect("trace reader cache");
        if let Some(st) = cache.hit(n) {
            drop(cache);
            self.obs.inc("trace.state_hits");
            self.obs.record_duration("trace.seek_ns", begin.elapsed());
            return Ok(st);
        }
        let key = self.store.segment_start(n);
        if cache.chain_key != key {
            cache.chain.clear();
            cache.chain_key = key;
        }
        let keyframes = u64::from(cache.chain.is_empty());
        let decoded = self.store.extend_chain(&mut cache.chain, n)?;
        let raw = &cache.chain[(n - key) as usize];
        let len = raw.len();
        let st = Arc::new(parse_state(n, raw)?);
        cache.states.push((n, st.clone(), len));
        if cache.states.len() > CACHE_STATES {
            cache.states.remove(0);
        }
        let resident = self.store_bytes + cache.bytes();
        drop(cache);
        self.obs.add("trace.keyframe_decodes", keyframes);
        self.obs.add("trace.delta_decodes", decoded - keyframes);
        self.obs.inc("trace.state_decodes");
        self.obs.set_gauge("trace.resident_bytes", resident);
        self.obs.record_duration("trace.seek_ns", begin.elapsed());
        Ok(st)
    }
}

impl std::fmt::Debug for TraceReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReader")
            .field("pauses", &self.store.len())
            .finish()
    }
}
