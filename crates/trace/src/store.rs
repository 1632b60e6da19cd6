//! The omniscient trace store: one compressed, indexed recording of an
//! execution, appendable while the inferior runs and queryable forever
//! after.
//!
//! Layout is columnar. Per pause the store keeps: a compressed snapshot
//! record (a *keyframe* every `keyframe_every` pauses, a *delta* against
//! the previous snapshot otherwise), the executed source line, the stack
//! depth, and the offset of that pause's output delta in one shared
//! output blob. A sorted keyframe-implied index (`snap_off`) gives
//! `state_at(n)` its O(log n) shape: jump to the enclosing keyframe in
//! O(1) arithmetic, then replay at most `keyframe_every - 1` bounded
//! deltas. A variable-write index built at append time answers history
//! queries ("when did `x` last change?") by binary search, never by
//! replay.

use crate::codec;
use serde::{Deserialize, Serialize};
use state::{render_value, ProgramState, Scope};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Magic at the head of the on-disk format.
pub const MAGIC: &[u8; 8] = b"EZTRACE\x01";
/// On-disk format version; bump on incompatible layout changes.
pub const FORMAT_VERSION: u32 = 1;
/// Default keyframe cadence: one full snapshot per this many pauses.
pub const DEFAULT_KEYFRAME_EVERY: u32 = 32;

/// One hit from a history query: the pause at which a variable took a
/// (new) value, and that value rendered the way watchpoints render.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryHit {
    /// Pause index (0-based) at which the write landed.
    pub pause: u64,
    /// Rendered value after the write.
    pub value: String,
}

#[derive(Debug, Clone, Default)]
struct WriteLog {
    /// Per interned variable name: (pause, rendered value), pause-sorted
    /// by construction (appends happen in pause order).
    by_name: Vec<Vec<(u64, String)>>,
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl WriteLog {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        self.by_name.push(Vec::new());
        id
    }

    fn push(&mut self, name: &str, pause: u64, value: String) {
        let id = self.intern(name) as usize;
        self.by_name[id].push((pause, value));
    }

    /// Ids whose name matches `variable`: exact match for qualified
    /// queries (`main::x`), suffix match for bare names (`x` hits every
    /// `frame::x` plus the global `x`).
    fn matching_ids(&self, variable: &str) -> Vec<usize> {
        let qualified = variable.contains("::");
        let suffix = format!("::{variable}");
        self.names
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                if qualified {
                    n.as_str() == variable
                } else {
                    n.as_str() == variable || n.ends_with(&suffix)
                }
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn resident_bytes(&self) -> u64 {
        let mut n = 0u64;
        for v in &self.by_name {
            n += (v.capacity() * std::mem::size_of::<(u64, String)>()) as u64;
            n += v.iter().map(|(_, s)| s.capacity() as u64).sum::<u64>();
        }
        n += self
            .names
            .iter()
            .map(|s| s.capacity() as u64 + 48)
            .sum::<u64>()
            * 2; // names vec + ids map, roughly
        n
    }
}

/// The appendable, queryable trace store. Build one with [`Store::new`]
/// and [`Store::push`] while an execution runs (or from a finished
/// recording), then share it behind an `Arc` with any number of
/// readers.
#[derive(Debug, Clone)]
pub struct Store {
    file: String,
    source: String,
    keyframe_every: u32,
    exit_code: Option<i64>,
    /// Concatenated compressed snapshot records.
    snap: Vec<u8>,
    /// Start offset of pause *i*'s record in `snap`; record *i* ends at
    /// `snap_off[i + 1]` (or `snap.len()` for the last).
    snap_off: Vec<u64>,
    /// Executed source line per pause.
    lines: Vec<u32>,
    /// Stack depth per pause.
    depths: Vec<u32>,
    /// All output, concatenated in pause order.
    output: String,
    /// Start offset of pause *i*'s output delta in `output`.
    out_off: Vec<u32>,
    writes: WriteLog,
    /// Raw JSON of the most recently pushed state — the dictionary for
    /// the next delta. Dropped by [`Store::freeze`].
    prev_json: String,
    /// Serialization buffer of the state being pushed; it trades places
    /// with `prev_json` after each push. Dropped by [`Store::freeze`].
    json: String,
    /// Compressor tables reused by every push. Dropped by [`Store::freeze`].
    enc: codec::Encoder,
    /// Visible variables of the most recently pushed state, rendered and
    /// keyed like the write index: what the next push diffs against.
    /// Dropped by [`Store::freeze`].
    prev_vals: HashMap<String, String>,
    /// Length of [`Store::to_bytes`], computed at most once per content
    /// (every mutation clears it).
    disk_len: OnceLock<u64>,
}

impl Store {
    /// Creates an empty store for a program. `keyframe_every == 0` is
    /// clamped to 1 (every snapshot a keyframe).
    pub fn new(file: impl Into<String>, source: impl Into<String>, keyframe_every: u32) -> Self {
        Store {
            file: file.into(),
            source: source.into(),
            keyframe_every: keyframe_every.max(1),
            exit_code: None,
            snap: Vec::new(),
            snap_off: Vec::new(),
            lines: Vec::new(),
            depths: Vec::new(),
            output: String::new(),
            out_off: Vec::new(),
            writes: WriteLog::default(),
            prev_json: String::new(),
            json: String::new(),
            enc: codec::Encoder::new(),
            prev_vals: HashMap::new(),
            disk_len: OnceLock::new(),
        }
    }

    /// Number of recorded pauses.
    pub fn len(&self) -> u64 {
        self.snap_off.len() as u64
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.snap_off.is_empty()
    }

    /// The traced program's file name.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// The traced program's source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Keyframe cadence.
    pub fn keyframe_every(&self) -> u32 {
        self.keyframe_every
    }

    /// Exit code, once the recorded run finished.
    pub fn exit_code(&self) -> Option<i64> {
        self.exit_code
    }

    /// Records the exit code of the traced run.
    pub fn set_exit_code(&mut self, code: Option<i64>) {
        self.exit_code = code;
        self.disk_len.take();
    }

    /// Number of keyframes currently in the store.
    pub fn keyframes(&self) -> u64 {
        let n = self.len();
        let k = u64::from(self.keyframe_every);
        n.div_ceil(k)
    }

    /// Appends one pause: the paused state plus the output it produced
    /// since the previous pause. States must be pushed in execution
    /// order.
    pub fn push(&mut self, st: &ProgramState, output_delta: &str) {
        let mut json = std::mem::take(&mut self.json);
        json.clear();
        st.write_json(&mut json);
        let n = self.snap_off.len() as u64;
        let is_key = n.is_multiple_of(u64::from(self.keyframe_every));
        let dict = if is_key { "" } else { &self.prev_json };
        self.snap_off.push(self.snap.len() as u64);
        self.enc
            .compress_into(dict.as_bytes(), json.as_bytes(), &mut self.snap);
        self.lines.push(st.frame.location().line());
        self.depths.push(st.stack_depth() as u32);
        self.out_off.push(self.output.len() as u32);
        self.output.push_str(output_delta);
        self.index_writes(st, n);
        self.json = std::mem::replace(&mut self.prev_json, json);
        self.disk_len.take();
    }

    /// Appends output to the *last* recorded pause (trailing output that
    /// arrives between the final step and program exit).
    pub fn append_output_to_last(&mut self, tail: &str) {
        if !self.out_off.is_empty() {
            self.output.push_str(tail);
            self.disk_len.take();
        }
    }

    /// Diffs `st` against the previously pushed state and logs every
    /// variable whose rendered value is new. Locals are qualified by
    /// their frame name (`main::x`); globals use their bare name. On the
    /// first pause every visible variable counts as written.
    fn index_writes(&mut self, st: &ProgramState, pause: u64) {
        let mut vals = HashMap::with_capacity(self.prev_vals.len());
        for_each_visible(st, |name, val| {
            if self.prev_vals.get(&name) != Some(&val) {
                self.writes.push(&name, pause, val.clone());
            }
            vals.insert(name, val);
        });
        self.prev_vals = vals;
    }

    /// All writes to `variable` with pause index in `[from, to]`,
    /// pause-ordered. Bare names match every frame-qualified local of
    /// that name plus the global; qualified names (`main::x`) match
    /// exactly.
    pub fn writes_in(&self, variable: &str, from: u64, to: u64) -> Vec<HistoryHit> {
        let mut hits: Vec<HistoryHit> = Vec::new();
        for id in self.writes.matching_ids(variable) {
            let log = &self.writes.by_name[id];
            let start = log.partition_point(|(p, _)| *p < from);
            for (p, v) in &log[start..] {
                if *p > to {
                    break;
                }
                hits.push(HistoryHit {
                    pause: *p,
                    value: v.clone(),
                });
            }
        }
        hits.sort_by_key(|h| h.pause);
        hits
    }

    /// The most recent write to `variable` at or before pause `before`
    /// (defaults to the end of the recording).
    pub fn last_change(&self, variable: &str, before: Option<u64>) -> Option<HistoryHit> {
        let before = before.unwrap_or_else(|| self.len().saturating_sub(1));
        let mut best: Option<HistoryHit> = None;
        for id in self.writes.matching_ids(variable) {
            let log = &self.writes.by_name[id];
            let end = log.partition_point(|(p, _)| *p <= before);
            if end > 0 {
                let (p, v) = &log[end - 1];
                if best.as_ref().map(|b| *p >= b.pause).unwrap_or(true) {
                    best = Some(HistoryHit {
                        pause: *p,
                        value: v.clone(),
                    });
                }
            }
        }
        best
    }

    /// Executed source lines, deduplicated and sorted.
    pub fn breakable_lines(&self) -> Vec<u32> {
        let mut ls = self.lines.clone();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Source line executed at pause `n`.
    pub fn line_at(&self, n: u64) -> Option<u32> {
        self.lines.get(n as usize).copied()
    }

    /// Stack depth at pause `n`.
    pub fn depth_at(&self, n: u64) -> Option<u32> {
        self.depths.get(n as usize).copied()
    }

    /// Output produced by pauses `[a, b)` — a borrowed slice of the
    /// shared blob, no concatenation.
    pub fn output_range(&self, a: u64, b: u64) -> &str {
        let n = self.out_off.len();
        let start = match self.out_off.get(a as usize) {
            Some(&o) => o as usize,
            None => self.output.len(),
        };
        let end = if (b as usize) < n {
            self.out_off[b as usize] as usize
        } else {
            self.output.len()
        };
        &self.output[start.min(end)..end]
    }

    fn record_bytes(&self, i: u64) -> &[u8] {
        let i = i as usize;
        let start = self.snap_off[i] as usize;
        let end = self
            .snap_off
            .get(i + 1)
            .map(|&o| o as usize)
            .unwrap_or(self.snap.len());
        &self.snap[start..end]
    }

    /// First pause of the keyframe segment containing pause `n`.
    pub fn segment_start(&self, n: u64) -> u64 {
        n - n % u64::from(self.keyframe_every)
    }

    /// Extends `chain` — the raw JSON states of the first `chain.len()`
    /// pauses of pause `n`'s keyframe segment — until it ends at `n`:
    /// decompresses the keyframe when `chain` is empty, then one delta
    /// per missing pause, each against the previous state. Returns how
    /// many records were decompressed (0 when `chain` already reaches
    /// `n`). Nothing is parsed.
    pub(crate) fn extend_chain(&self, chain: &mut Vec<Vec<u8>>, n: u64) -> Result<u64, String> {
        if n >= self.len() {
            return Err(format!("pause {n} out of range (len {})", self.len()));
        }
        let key = self.segment_start(n);
        let mut decoded = 0;
        for i in key + chain.len() as u64..=n {
            let dict = chain.last().map_or(&[][..], Vec::as_slice);
            chain.push(codec::decompress(dict, self.record_bytes(i))?);
            decoded += 1;
        }
        Ok(decoded)
    }

    /// Raw JSON bytes of the state at pause `n`: decode the enclosing
    /// keyframe, then replay at most `keyframe_every - 1` deltas.
    pub fn state_bytes_at(&self, n: u64) -> Result<Vec<u8>, String> {
        let mut chain = Vec::new();
        self.extend_chain(&mut chain, n)?;
        Ok(chain.pop().expect("the chain reaches pause n"))
    }

    /// Decoded state at pause `n`.
    pub fn state_at(&self, n: u64) -> Result<ProgramState, String> {
        parse_state(n, &self.state_bytes_at(n)?)
    }

    /// Bytes this store holds in memory (buffer capacities, not counting
    /// allocator overhead). The headline number for
    /// `replay.resident_bytes`.
    pub fn resident_bytes(&self) -> u64 {
        (self.snap.capacity()
            + self.snap_off.capacity() * 8
            + self.lines.capacity() * 4
            + self.depths.capacity() * 4
            + self.output.capacity()
            + self.out_off.capacity() * 4
            + self.prev_json.capacity()
            + self.json.capacity()) as u64
            + self.enc.scratch_bytes()
            + self.writes.resident_bytes()
            + self
                .prev_vals
                .iter()
                .map(|(k, v)| (k.capacity() + v.capacity() + 48) as u64)
                .sum::<u64>()
    }

    /// Drops append-side scratch (the delta dictionary, the compressor's
    /// tables and the diff state).
    /// Call when the recording is complete; pushing after this would
    /// start a fresh (incorrect) delta chain, so `push` must not be
    /// called again.
    pub fn freeze(&mut self) {
        self.prev_json = String::new();
        self.json = String::new();
        self.enc = codec::Encoder::new();
        self.prev_vals = HashMap::new();
        self.snap.shrink_to_fit();
        self.output.shrink_to_fit();
    }

    // ---- persistence ---------------------------------------------------

    /// Size of the on-disk form, `to_bytes().len()`: serialized on the
    /// first call after a change, remembered after that (a store read
    /// from disk already knows it). Readers of one shared store pay it
    /// once between them.
    pub fn disk_bytes(&self) -> u64 {
        *self.disk_len.get_or_init(|| self.to_bytes().len() as u64)
    }

    /// Serializes the store to its on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        let meta = serde_json::json!({
            "file": self.file,
            "source": self.source,
            "keyframe_every": self.keyframe_every,
            "exit_code": self.exit_code,
            "pauses": self.len(),
        });
        put_section(&mut body, meta.to_string().as_bytes());
        let mut col = Vec::new();
        let mut prev = 0u64;
        for &o in &self.snap_off {
            codec::put_varint(&mut col, o - prev);
            prev = o;
        }
        put_section(&mut body, &col);
        put_section(&mut body, &self.snap);
        col.clear();
        for &l in &self.lines {
            codec::put_varint(&mut col, u64::from(l));
        }
        put_section(&mut body, &col);
        col.clear();
        for &d in &self.depths {
            codec::put_varint(&mut col, u64::from(d));
        }
        put_section(&mut body, &col);
        col.clear();
        let mut prev = 0u32;
        for &o in &self.out_off {
            codec::put_varint(&mut col, u64::from(o - prev));
            prev = o;
        }
        put_section(&mut body, &col);
        put_section(&mut body, self.output.as_bytes());
        // Write index: compressed as one blob, it is mostly repeated names.
        let mut windex = Vec::new();
        codec::put_varint(&mut windex, self.writes.names.len() as u64);
        for (id, name) in self.writes.names.iter().enumerate() {
            put_section(&mut windex, name.as_bytes());
            let log = &self.writes.by_name[id];
            codec::put_varint(&mut windex, log.len() as u64);
            let mut prev = 0u64;
            for (p, v) in log {
                codec::put_varint(&mut windex, p - prev);
                prev = *p;
                put_section(&mut windex, v.as_bytes());
            }
        }
        put_section(&mut body, &codec::compress(&[], &windex));

        let mut out = Vec::with_capacity(body.len() + 24);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out
    }

    /// Deserializes a store written by [`Store::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Store, String> {
        if buf.len() < MAGIC.len() + 12 {
            return Err("trace file truncated".into());
        }
        if &buf[..MAGIC.len()] != MAGIC {
            return Err("not a trace file (bad magic)".into());
        }
        let mut pos = MAGIC.len();
        let version = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        pos += 4;
        if version != FORMAT_VERSION {
            return Err(format!(
                "trace format v{version} unsupported (expected v{FORMAT_VERSION})"
            ));
        }
        let body = &buf[pos..buf.len() - 8];
        let want = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        let got = fnv1a(body);
        if want != got {
            return Err(format!("trace checksum mismatch ({got:#x} != {want:#x})"));
        }
        let mut pos = 0usize;
        let meta = get_section(body, &mut pos)?;
        let meta: serde_json::Value =
            serde_json::from_slice(meta).map_err(|e| format!("trace meta: {e}"))?;
        let pauses = meta["pauses"].as_u64().ok_or("trace meta: pauses")? as usize;
        let mut store = Store::new(
            meta["file"].as_str().unwrap_or_default(),
            meta["source"].as_str().unwrap_or_default(),
            meta["keyframe_every"].as_u64().unwrap_or(1) as u32,
        );
        store.exit_code = meta["exit_code"].as_i64();

        let col = get_section(body, &mut pos)?;
        store.snap_off = decode_deltas(col, pauses)?;
        store.snap = get_section(body, &mut pos)?.to_vec();
        if store
            .snap_off
            .last()
            .is_some_and(|&o| o > store.snap.len() as u64)
        {
            return Err("trace index: record offset past the record heap".into());
        }
        let col = get_section(body, &mut pos)?;
        store.lines = decode_u32s(col, pauses)?;
        let col = get_section(body, &mut pos)?;
        store.depths = decode_u32s(col, pauses)?;
        let col = get_section(body, &mut pos)?;
        let out_off = decode_deltas(col, pauses)?;
        store.output = String::from_utf8(get_section(body, &mut pos)?.to_vec())
            .map_err(|e| format!("trace output: {e}"))?;
        // Offsets are non-decreasing by construction; each must also cut
        // the output blob at a character boundary.
        store.out_off = out_off
            .into_iter()
            .map(|o| {
                u32::try_from(o)
                    .ok()
                    .filter(|&o| store.output.is_char_boundary(o as usize))
                    .ok_or_else(|| format!("trace output: offset {o} is not a boundary"))
            })
            .collect::<Result<_, _>>()?;

        let windex = codec::decompress(&[], get_section(body, &mut pos)?)?;
        let mut wpos = 0usize;
        let names = codec::get_varint(&windex, &mut wpos)? as usize;
        for _ in 0..names {
            let name = String::from_utf8(get_section(&windex, &mut wpos)?.to_vec())
                .map_err(|e| format!("trace windex: {e}"))?;
            let count = codec::get_varint(&windex, &mut wpos)? as usize;
            let id = store.writes.intern(&name) as usize;
            let mut prev = 0u64;
            for _ in 0..count {
                prev = prev
                    .checked_add(codec::get_varint(&windex, &mut wpos)?)
                    .ok_or("trace windex: pause overflow")?;
                let val = String::from_utf8(get_section(&windex, &mut wpos)?.to_vec())
                    .map_err(|e| format!("trace windex: {e}"))?;
                store.writes.by_name[id].push((prev, val));
            }
        }
        store.disk_len = OnceLock::from(buf.len() as u64);
        Ok(store)
    }

    /// Writes the store to `path`.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<u64> {
        let bytes = self.to_bytes();
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Reads a store from `path`.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Store, String> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| format!("open {}: {e}", path.as_ref().display()))?;
        Store::from_bytes(&bytes)
    }
}

/// Parses the raw JSON of pause `n`'s state.
pub(crate) fn parse_state(n: u64, bytes: &[u8]) -> Result<ProgramState, String> {
    serde_json::from_slice(bytes).map_err(|e| format!("state {n}: {e}"))
}

/// Visits every visible variable of a state with its history-index name:
/// locals/parameters/registers qualified by frame (`main::x`, innermost
/// frame first so shadowed outer locals are skipped), globals bare.
fn for_each_visible(st: &ProgramState, mut f: impl FnMut(String, String)) {
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for frame in st.frame.chain() {
        for var in frame.variables() {
            // A global its frame also lists (MiniPy's module frame) is
            // logged once, under its bare name below.
            let global = |g: &state::Variable| g.scope() == Scope::Global && g.name() == var.name();
            if var.scope() == Scope::Global && st.globals.iter().any(global) {
                continue;
            }
            let name = format!("{}::{}", frame.name(), var.name());
            if seen.insert(name.clone()) {
                f(name, render_value(var.value().deref_fully()));
            }
        }
    }
    for var in st.globals.iter().filter(|v| v.scope() == Scope::Global) {
        let name = var.name().to_string();
        if seen.insert(name.clone()) {
            f(name, render_value(var.value().deref_fully()));
        }
    }
}

fn put_section(out: &mut Vec<u8>, bytes: &[u8]) {
    codec::put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn get_section<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], String> {
    let len = codec::get_varint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| "trace section past end of file".to_string())?;
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

// Column decoders reserve at most one entry per column byte: `count`
// comes from the file and is only trusted as far as the bytes back it.

fn decode_deltas(col: &[u8], count: usize) -> Result<Vec<u64>, String> {
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(count.min(col.len()));
    let mut acc = 0u64;
    for _ in 0..count {
        acc = acc
            .checked_add(codec::get_varint(col, &mut pos)?)
            .ok_or("trace column: offset overflow")?;
        out.push(acc);
    }
    Ok(out)
}

fn decode_u32s(col: &[u8], count: usize) -> Result<Vec<u32>, String> {
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(count.min(col.len()));
    for _ in 0..count {
        out.push(codec::get_varint(col, &mut pos)? as u32);
    }
    Ok(out)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
