//! Omniscient trace store: indexed, persistent execution recordings
//! with O(log n) time travel.
//!
//! The EasyTracker paper's record/replay workflow (§V) snapshots the
//! full [`state::ProgramState`] at every executed line. This crate is
//! the scalable back end for that workflow: instead of a vector of full
//! snapshots it keeps periodic *keyframes* plus delta-encoded records
//! in a compressed columnar layout ([`Store`]), an index from pause
//! number to record offset, a shared output blob, and a variable-write
//! index for history queries.
//!
//! * `seek(n)` is O(log n): binary-search arithmetic to the enclosing
//!   keyframe, then at most `keyframe_every - 1` bounded delta replays
//!   on raw bytes, and one parse — of pause `n` alone.
//! * Reverse-step / reverse-continue are seeks.
//! * "When did `x` last change?" / "all writes to `x` in `[a, b]`" are
//!   binary searches over the write index — no replay at all.
//!
//! A [`Store`] is appendable while the inferior runs, serializes to a
//! versioned on-disk format ([`Store::to_bytes`] / [`Store::open`]),
//! and is shared behind an `Arc` by any number of concurrently
//! scrubbing [`TraceReader`]s, each with its own delta chain and
//! decoded-state cache and its own `obs` metrics (`trace.seek_ns`,
//! `trace.state_decodes`, `trace.state_hits`, `trace.resident_bytes`).
//!
//! # Examples
//!
//! ```
//! use state::{Frame, PauseReason, ProgramState, Prim, Scope, SourceLocation, Value, Variable};
//!
//! let mut store = trace::Store::new("t.c", "int main() {}", 4);
//! for i in 0..10u32 {
//!     let mut frame = Frame::new("main", 0, SourceLocation::new("t.c", i + 1));
//!     frame.insert_variable(Variable::new(
//!         "x",
//!         Scope::Local,
//!         Value::primitive(Prim::Int(i64::from(i)), "int"),
//!     ));
//!     let st = ProgramState::new(frame, vec![], PauseReason::Step);
//!     store.push(&st, "");
//! }
//! store.set_exit_code(Some(0));
//! store.freeze();
//!
//! // O(log n) random access…
//! assert_eq!(store.state_at(7).unwrap().frame.location().line(), 8);
//! // …history queries without replay…
//! let hit = store.last_change("x", None).unwrap();
//! assert_eq!((hit.pause, hit.value.as_str()), (9, "9"));
//! // …and a byte-exact persistent form.
//! let back = trace::Store::from_bytes(&store.to_bytes()).unwrap();
//! assert_eq!(back.state_at(7).unwrap(), store.state_at(7).unwrap());
//! ```

pub mod codec;
mod reader;
mod store;

pub use reader::TraceReader;
pub use store::{HistoryHit, Store, DEFAULT_KEYFRAME_EVERY, FORMAT_VERSION, MAGIC};

#[cfg(test)]
mod tests {
    use super::*;
    use state::{Frame, PauseReason, Prim, ProgramState, Scope, SourceLocation, Value, Variable};
    use std::sync::Arc;

    fn mk_state(line: u32, x: i64, depth: u32, reason: PauseReason) -> ProgramState {
        let mut frame = Frame::new("main", 0, SourceLocation::new("t.c", line));
        frame.insert_variable(Variable::new(
            "x",
            Scope::Local,
            Value::primitive(Prim::Int(x), "int"),
        ));
        let mut inner = frame;
        for d in 1..=depth {
            let mut f = Frame::new(format!("f{d}"), d, SourceLocation::new("t.c", line));
            f.insert_variable(Variable::new(
                "y",
                Scope::Local,
                Value::primitive(Prim::Int(i64::from(d)), "int"),
            ));
            f.set_parent(inner);
            inner = f;
        }
        let globals = vec![Variable::new(
            "g",
            Scope::Global,
            Value::primitive(Prim::Int(x / 3), "int"),
        )];
        ProgramState::new(inner, globals, reason)
    }

    fn build(n: u32, keyframe_every: u32) -> Store {
        let mut store = Store::new("t.c", "int main() { return 0; }", keyframe_every);
        for i in 0..n {
            let reason = if i == 0 {
                PauseReason::Started
            } else {
                PauseReason::Step
            };
            let st = mk_state(i % 17 + 1, i64::from(i), i % 3, reason);
            store.push(&st, &format!("out{i};"));
        }
        store.set_exit_code(Some(14));
        store
    }

    #[test]
    fn every_pause_reconstructs_exactly() {
        let store = build(100, 8);
        for i in 0..100u64 {
            let st = store.state_at(i).unwrap();
            let want = mk_state(
                (i % 17 + 1) as u32,
                i as i64,
                (i % 3) as u32,
                if i == 0 {
                    PauseReason::Started
                } else {
                    PauseReason::Step
                },
            );
            assert_eq!(st, want, "pause {i}");
        }
        assert!(store.state_at(100).is_err());
    }

    #[test]
    fn disk_roundtrip_is_byte_exact() {
        let mut store = build(75, 16);
        store.freeze();
        let bytes = store.to_bytes();
        let back = Store::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), store.len());
        assert_eq!(back.exit_code(), Some(14));
        assert_eq!(back.file(), store.file());
        assert_eq!(back.source(), store.source());
        assert_eq!(back.breakable_lines(), store.breakable_lines());
        for i in 0..store.len() {
            assert_eq!(
                back.state_bytes_at(i).unwrap(),
                store.state_bytes_at(i).unwrap(),
                "pause {i}"
            );
        }
        assert_eq!(
            back.output_range(0, back.len()),
            store.output_range(0, store.len())
        );
        assert_eq!(back.writes_in("x", 0, 74), store.writes_in("x", 0, 74));
        // Serialization is deterministic.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_trace_files_are_rejected() {
        let store = build(10, 4);
        let bytes = store.to_bytes();
        assert!(
            Store::from_bytes(&bytes[..bytes.len() - 1]).is_err(),
            "truncated"
        );
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x41;
        assert!(Store::from_bytes(&flipped).is_err(), "bit flip");
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(Store::from_bytes(&bad_magic).is_err(), "magic");
        let mut bad_version = bytes;
        bad_version[8] = 0xfe;
        assert!(Store::from_bytes(&bad_version).is_err(), "version");
    }

    #[test]
    fn output_ranges_slice_the_blob() {
        let store = build(5, 2);
        assert_eq!(store.output_range(0, 5), "out0;out1;out2;out3;out4;");
        assert_eq!(store.output_range(1, 3), "out1;out2;");
        assert_eq!(store.output_range(3, 3), "");
        assert_eq!(store.output_range(4, 99), "out4;");
    }

    #[test]
    fn history_queries_find_writes() {
        let store = build(60, 8);
        // x changes every pause; bare name matches main::x.
        let hits = store.writes_in("x", 10, 12);
        assert_eq!(
            hits.iter()
                .map(|h| (h.pause, h.value.as_str()))
                .collect::<Vec<_>>(),
            vec![(10, "10"), (11, "11"), (12, "12")]
        );
        // Qualified name.
        assert_eq!(store.writes_in("main::x", 10, 10).len(), 1);
        assert!(store.writes_in("main::nope", 0, 59).is_empty());
        // g = x / 3 changes only every third pause.
        let g = store.writes_in("g", 0, 8);
        assert_eq!(g.iter().map(|h| h.pause).collect::<Vec<_>>(), vec![0, 3, 6]);
        let last = store.last_change("g", Some(8)).unwrap();
        assert_eq!((last.pause, last.value.as_str()), (6, "2"));
        assert_eq!(store.last_change("g", None).unwrap().pause, 57);
        assert!(store.last_change("absent", None).is_none());
    }

    #[test]
    fn line_and_depth_columns() {
        let store = build(20, 4);
        assert_eq!(store.line_at(0), Some(1));
        assert_eq!(store.line_at(16), Some(17));
        assert_eq!(store.depth_at(4), Some(2)); // depth param 1 → 2 frames
        assert_eq!(store.depth_at(20), None);
        let lines = store.breakable_lines();
        assert!(lines.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(lines.first(), Some(&1));
    }

    #[test]
    fn empty_store_is_serviceable() {
        let mut store = Store::new("e.c", "", 32);
        store.set_exit_code(None);
        assert!(store.is_empty());
        assert!(store.state_at(0).is_err());
        assert_eq!(store.output_range(0, 0), "");
        let back = Store::from_bytes(&store.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.keyframes(), 0);
    }

    #[test]
    fn reader_decodes_each_record_once_on_a_scan() {
        let registry = obs::Registry::new();
        let store = Arc::new(build(64, 8));
        let reader = TraceReader::new(store.clone(), registry.clone());
        // A forward scan decompresses every record exactly once and
        // parses every state exactly once.
        for i in 0..64u64 {
            let st = reader.state_at(i).unwrap();
            assert_eq!(st.frame.location().line(), (i % 17 + 1) as u32);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.keyframe_decodes"), 8);
        assert_eq!(snap.counter("trace.delta_decodes"), 56);
        assert_eq!(snap.counter("trace.state_decodes"), 64);
        assert_eq!(snap.counter("trace.state_hits"), 0);
        assert!(snap.gauge("trace.resident_bytes") > 0);
        // Recently read states are hits.
        for i in (56..64u64).rev() {
            assert_eq!(*reader.state_at(i).unwrap(), store.state_at(i).unwrap());
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.state_decodes"), 64);
        assert_eq!(snap.counter("trace.state_hits"), 8);
    }

    #[test]
    fn a_seek_decodes_one_state_not_its_segment() {
        let registry = obs::Registry::new();
        let store = Arc::new(build(100, 32));
        let reader = TraceReader::new(store.clone(), registry.clone());
        // Pause 77 sits 13 records into the segment that starts at 64.
        let st = reader.state_at(77).unwrap();
        assert_eq!(*st, store.state_at(77).unwrap());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.state_decodes"), 1);
        assert_eq!(snap.counter("trace.keyframe_decodes"), 1);
        assert_eq!(snap.counter("trace.delta_decodes"), 13);
        // A later seek in the same segment resumes the chain: back costs
        // no record, forward only the records past the chain's end.
        reader.state_at(70).unwrap();
        reader.state_at(80).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.state_decodes"), 3);
        assert_eq!(snap.counter("trace.keyframe_decodes"), 1);
        assert_eq!(snap.counter("trace.delta_decodes"), 13 + 3);
        // Leaving the segment starts a new chain at its keyframe.
        reader.state_at(5).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.keyframe_decodes"), 2);
        assert_eq!(snap.counter("trace.delta_decodes"), 16 + 5);
    }

    #[test]
    fn readers_share_one_store_concurrently() {
        let store = Arc::new(build(48, 8));
        let mut handles = Vec::new();
        for r in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let reader = TraceReader::new(store, obs::Registry::new());
                let mut sum = 0i64;
                for i in 0..48u64 {
                    let n = (i * 7 + r) % 48;
                    let st = reader.state_at(n).unwrap();
                    assert_eq!(st.frame.location().line(), (n % 17 + 1) as u32);
                    sum += n as i64;
                }
                sum
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn compression_beats_full_snapshots() {
        let store = build(200, 32);
        let raw: usize = (0..200u64)
            .map(|i| store.state_bytes_at(i).unwrap().len())
            .sum();
        let disk = store.to_bytes().len();
        assert!(
            disk < raw / 2,
            "store should compress well below raw snapshots: {disk} vs {raw}"
        );
    }
}
