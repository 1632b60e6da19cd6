//! Mutation fuzz for the on-disk trace format (`EZTRACE`).
//!
//! Pinned: a damaged trace file opens to a typed error, or to a store
//! whose every query answers `Ok` or a typed `Err` — never a panic, never
//! an unbounded allocation. Two mutation classes, both seeded:
//!
//! * **raw damage** (bit flips, overwrites, deletions, insertions,
//!   truncation) of the file as written: the checksum must reject every
//!   mutant that changed a byte;
//! * **forged damage**: the same mutations applied to the body, with the
//!   trailing FNV-1a checksum recomputed, as a writer that knows the
//!   format could. These reach the section, column, record (LZ) and
//!   snapshot (JSON) decoders, and everything that reads a store: a
//!   [`trace::TraceReader`] scrubbing forward and back, and a
//!   [`mi::ReplayEngine`] driven through control, inspection, seek and
//!   history commands, and a [`ReplayTracker`] driving the same engine
//!   in process through control points and reverse execution.

use easytracker::{MiTracker, Recording, ReplayTracker, Tracker};
use mi::protocol::Command;
use mi::Engine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use trace::codec;

/// Recursion, a heap array, globals and output: every column and the
/// write index carry data.
const PROG: &str = "\
int total = 0;
int fact(int n) {
    if (n < 2) {
        return 1;
    }
    int r = n * fact(n - 1);
    printf(\"%d\\n\", r);
    return r;
}
int main() {
    int* xs = (int*)malloc(16);
    int i = 0;
    while (i < 4) {
        xs[i] = fact(i + 2);
        total = total + xs[i];
        i = i + 1;
    }
    free(xs);
    return total - 152;
}
";

const MAGIC_AND_VERSION: usize = 12;
const CHECKSUM: usize = 8;

fn recorded_file() -> Vec<u8> {
    let mut live = MiTracker::load_c("fuzz.c", PROG).unwrap();
    let rec = Recording::capture(&mut live).unwrap();
    live.terminate();
    let mut store = rec.to_store(8);
    store.freeze();
    assert!(store.len() > 40, "recording too short: {}", store.len());
    store.to_bytes()
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A position in `0..len`, aimed at the small structural sections at
    /// either end two times in three (the record heap dominates the middle).
    fn pos(&mut self, len: usize) -> usize {
        match self.below(3) {
            0 => self.below(len.min(256)),
            1 => len - 1 - self.below(len.min(256)),
            _ => self.below(len),
        }
    }
}

/// Applies one to three seeded mutations to `buf`; returns what was done.
fn mutate(buf: &mut Vec<u8>, rng: &mut Rng) -> String {
    let mut done = Vec::new();
    for _ in 0..1 + rng.below(3) {
        if buf.is_empty() {
            break;
        }
        let at = rng.pos(buf.len());
        match rng.below(6) {
            0 => {
                let bit = rng.below(8);
                buf[at] ^= 1 << bit;
                done.push(format!("flip {at}.{bit}"));
            }
            1 => {
                let v = rng.next() as u8;
                buf[at] = v;
                done.push(format!("set {at}={v:#x}"));
            }
            2 => {
                let v = [0x00, 0x7f, 0x80, 0xff][rng.below(4)];
                buf[at] = v;
                done.push(format!("set {at}={v:#x}"));
            }
            3 => {
                let n = (1 + rng.below(8)).min(buf.len() - at);
                buf.drain(at..at + n);
                done.push(format!("delete {at}+{n}"));
            }
            4 => {
                let n = 1 + rng.below(8);
                let bytes: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                buf.splice(at..at, bytes);
                done.push(format!("insert {at}+{n}"));
            }
            _ => {
                buf.truncate(at);
                done.push(format!("truncate {at}"));
            }
        }
    }
    done.join(", ")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Runs every read path over a store that opened.
fn exercise(store: trace::Store) {
    let n = store.len();
    let _ = store.breakable_lines();
    let _ = store.output_range(0, n);
    let _ = store.output_range(n / 2, n + 3);
    let _ = store.writes_in("n", 0, n);
    let _ = store.last_change("total", None);
    let _ = (store.line_at(n / 2), store.depth_at(n / 2));
    let _ = store.disk_bytes();
    let store = Arc::new(store);
    let reader = trace::TraceReader::new(store.clone(), obs::Registry::new());
    let scan = n.min(64);
    for i in 0..scan {
        let _ = reader.state_at(i);
    }
    for i in (0..scan).rev().step_by(5) {
        let _ = reader.state_at(i);
    }
    let mut eng = mi::ReplayEngine::new(store.clone(), obs::Registry::new());
    for cmd in [
        Command::Start,
        Command::Step,
        Command::GetState,
        Command::Next,
        Command::Finish,
        Command::GetVariable {
            name: "fact::r".into(),
        },
        Command::Seek { pause: n / 2 },
        Command::GetGlobals,
        Command::QueryHistory {
            variable: "i".into(),
            from: None,
            to: None,
            last_only: false,
        },
        Command::TraceStats,
        Command::Resume,
        Command::GetOutput,
        Command::GetExitCode,
    ] {
        let _ = eng.handle(cmd);
    }
    // The same engine in process, with control points that decode every
    // pause they test: each call answers or fails typed.
    let mut t = ReplayTracker::from_store(store);
    let _ = t.start();
    let _ = t.track_function("fact", None);
    let _ = t.watch("total");
    let _ = t.resume();
    let _ = t.step();
    let _ = t.next();
    let _ = t.finish();
    let _ = t.get_state();
    let _ = t.step_back();
    let _ = t.resume_back();
    let _ = t.get_state();
}

#[test]
fn raw_damage_is_always_rejected() {
    let file = recorded_file();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for case in 0..600 {
        let mut bad = file.clone();
        let what = mutate(&mut bad, &mut rng);
        let opened = catch_unwind(AssertUnwindSafe(|| trace::Store::from_bytes(&bad)))
            .unwrap_or_else(|_| panic!("case {case} ({what}): from_bytes panicked"));
        if bad != file {
            assert!(opened.is_err(), "case {case} ({what}): damage accepted");
        }
    }
}

/// The body's length-prefixed sections, in file order: meta, record
/// offsets, record heap, lines, depths, output offsets, output, write
/// index.
fn sections(file: &[u8]) -> Vec<Vec<u8>> {
    let body = &file[MAGIC_AND_VERSION..file.len() - CHECKSUM];
    let (mut pos, mut out) = (0, Vec::new());
    while pos < body.len() {
        let len = codec::get_varint(body, &mut pos).unwrap() as usize;
        out.push(body[pos..pos + len].to_vec());
        pos += len;
    }
    out
}

fn frame(sections: &[Vec<u8>]) -> Vec<u8> {
    let mut body = Vec::new();
    for s in sections {
        codec::put_varint(&mut body, s.len() as u64);
        body.extend_from_slice(s);
    }
    body
}

/// A file around `body` with a valid header and checksum.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut file = trace::MAGIC.to_vec();
    file.extend_from_slice(&trace::FORMAT_VERSION.to_le_bytes());
    file.extend_from_slice(body);
    file.extend_from_slice(&fnv1a(body).to_le_bytes());
    file
}

/// The record-offset column and record heap for raw snapshots, as the
/// store writes them: a keyframe every `every` pauses, deltas between.
fn encode_records(raw: &[Vec<u8>], every: u32) -> (Vec<u8>, Vec<u8>) {
    let (mut offsets, mut heap, mut prev) = (Vec::new(), Vec::new(), 0);
    for (i, r) in raw.iter().enumerate() {
        let dict = if (i as u64).is_multiple_of(u64::from(every)) {
            &[][..]
        } else {
            raw[i - 1].as_slice()
        };
        codec::put_varint(&mut offsets, heap.len() as u64 - prev);
        prev = heap.len() as u64;
        heap.extend_from_slice(&codec::compress(dict, r));
    }
    (offsets, heap)
}

/// Swaps a number in a JSON snapshot for an out-of-range or mistyped
/// value (or, one time in three, damages bytes like [`mutate`]).
fn mutate_json(raw: &mut Vec<u8>, rng: &mut Rng) -> String {
    const TOKENS: &[&str] = &[
        "-1",
        "4294967296",
        "18446744073709551615",
        "-9223372036854775809",
        "1e308",
        "0.5",
        "null",
        "true",
        "\"\"",
        "[]",
        "{}",
    ];
    let starts: Vec<usize> = (0..raw.len())
        .filter(|&i| raw[i].is_ascii_digit() && (i == 0 || !raw[i - 1].is_ascii_digit()))
        .collect();
    if starts.is_empty() || rng.below(3) == 0 {
        return mutate(raw, rng);
    }
    let at = starts[rng.below(starts.len())];
    let end = at + raw[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    let token = TOKENS[rng.below(TOKENS.len())];
    raw.splice(at..end, token.bytes());
    format!("number at {at} -> {token}")
}

const OFFSETS: usize = 1;
const HEAP: usize = 2;
const WINDEX: usize = 7;

/// One forged file: damage at one of four depths, then a valid checksum.
fn forge(file: &[u8], store: &trace::Store, rng: &mut Rng) -> (Vec<u8>, String) {
    let mut secs = sections(file);
    let what = match rng.below(4) {
        0 => {
            let mut body = file[MAGIC_AND_VERSION..file.len() - CHECKSUM].to_vec();
            let what = mutate(&mut body, rng);
            return (seal(&body), format!("body: {what}"));
        }
        1 => {
            let s = rng.below(secs.len());
            format!("section {s}: {}", mutate(&mut secs[s], rng))
        }
        2 => {
            let mut index = codec::decompress(&[], &secs[WINDEX]).unwrap();
            let what = mutate(&mut index, rng);
            secs[WINDEX] = codec::compress(&[], &index);
            format!("write index: {what}")
        }
        _ => {
            let mut raw: Vec<Vec<u8>> = (0..store.len())
                .map(|i| store.state_bytes_at(i).unwrap())
                .collect();
            let p = rng.below(raw.len());
            let what = mutate_json(&mut raw[p], rng);
            (secs[OFFSETS], secs[HEAP]) = encode_records(&raw, store.keyframe_every());
            format!("state {p}: {what}")
        }
    };
    (seal(&frame(&secs)), what)
}

/// The undamaged file opens, knows its size, and is what this test's
/// own writer produces, so forged files differ only where damaged.
#[test]
fn the_undamaged_file_round_trips_through_the_test_writer() {
    let file = recorded_file();
    let store = trace::Store::from_bytes(&file).unwrap();
    assert_eq!(store.disk_bytes(), file.len() as u64);
    let mut secs = sections(&file);
    assert_eq!(secs.len(), 8);
    assert_eq!(seal(&frame(&secs)), file);
    let raw: Vec<Vec<u8>> = (0..store.len())
        .map(|i| store.state_bytes_at(i).unwrap())
        .collect();
    (secs[OFFSETS], secs[HEAP]) = encode_records(&raw, store.keyframe_every());
    assert_eq!(seal(&frame(&secs)), file);
    exercise(store);
}

#[test]
fn forged_damage_decodes_typed_or_not_at_all() {
    let file = recorded_file();
    let store = trace::Store::from_bytes(&file).unwrap();
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let (mut opened, mut failures) = (0, Vec::new());
    for case in 0..400 {
        let (forged, what) = forge(&file, &store, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            trace::Store::from_bytes(&forged).map(exercise).is_ok()
        }));
        match outcome {
            Ok(true) => opened += 1,
            Ok(false) => {}
            Err(_) => failures.push(format!("case {case} ({what})")),
        }
    }
    assert!(failures.is_empty(), "panicked on: {failures:#?}");
    // The sweep must reach the decoders behind the section parser, not
    // stop at it every time.
    assert!(opened > 100, "only {opened} of 400 forged files opened");
}
