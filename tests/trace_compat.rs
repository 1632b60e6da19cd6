//! Old recordings still read: `tests/fixtures/trace_v1_full_dict.eztrace`
//! was written by the `FORMAT_VERSION` 1 delta encoder that seeded every
//! dictionary position into its hash table, before the encoder anchored
//! the dictionary sparsely. The format and the decoder did not change, so
//! the current code must open that file and read back every pause exactly
//! as it was recorded: state, line, depth, output and write history.
//!
//! The states come from [`states`], a deterministic walk of a recursive
//! program (calls push frames, returns pop them, steps rewrite locals), so
//! the file carries keyframes, small deltas and frame-push deltas.
//!
//! The file was written once, by that older encoder's `Store::save` of
//! [`states`] through [`store_of`], and must not be rewritten: written by
//! the current encoder it would stop pinning anything.

use state::{Frame, PauseReason, Prim, ProgramState, Scope, SourceLocation, Value, Variable};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trace_v1_full_dict.eztrace"
);
const KEYFRAME_EVERY: u32 = 8;
const PAUSES: usize = 96;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// One simulated frame: a function name, its entry line and its locals.
struct Sim {
    name: String,
    line: u32,
    n: i64,
    acc: i64,
    tag: String,
}

fn frame_of(sims: &[Sim]) -> Frame {
    let mut parent: Option<Frame> = None;
    for (depth, s) in sims.iter().enumerate() {
        let mut f = Frame::new(&s.name, depth as u32, SourceLocation::new("walk.c", s.line));
        f.insert_variable(Variable::new(
            "n",
            Scope::Parameter,
            Value::primitive(Prim::Int(s.n), "int"),
        ));
        f.insert_variable(Variable::new(
            "acc",
            Scope::Local,
            Value::primitive(Prim::Int(s.acc), "int"),
        ));
        f.insert_variable(Variable::new(
            "tag",
            Scope::Local,
            Value::primitive(Prim::Str(s.tag.clone()), "char*"),
        ));
        let digits = (0..4).map(|k| Value::primitive(Prim::Int(s.n * k), "int"));
        f.insert_variable(Variable::new(
            "row",
            Scope::Local,
            Value::list(digits.collect(), "int[4]"),
        ));
        if let Some(p) = parent.take() {
            f.set_parent(p);
        }
        parent = Some(f);
    }
    parent.expect("at least main")
}

/// The recorded states with each pause's output delta.
fn states() -> Vec<(ProgramState, String)> {
    let mut rng = Rng(0x5eed_0001);
    let mut sims = vec![Sim {
        name: "main".into(),
        line: 20,
        n: 9,
        acc: 0,
        tag: "main".into(),
    }];
    let mut total = 0i64;
    let mut out = Vec::with_capacity(PAUSES);
    for i in 0..PAUSES {
        let reason = if i == 0 {
            PauseReason::Started
        } else {
            PauseReason::Step
        };
        let globals = vec![
            Variable::new(
                "total",
                Scope::Global,
                Value::primitive(Prim::Int(total), "int"),
            ),
            Variable::new(
                "banner",
                Scope::Global,
                Value::primitive(Prim::Str("a recursive walk".into()), "char*"),
            ),
        ];
        let printed = if i % 7 == 3 {
            format!("{total}\n")
        } else {
            String::new()
        };
        out.push((ProgramState::new(frame_of(&sims), globals, reason), printed));
        // Advance: call while shallow, return while deep, else step.
        let depth = sims.len() as u64;
        let roll = rng.below(10);
        let top = sims.last_mut().expect("main never returns");
        if top.n > 1 && depth < 7 && roll < 4 {
            let n = top.n - 1 - (roll as i64 & 1);
            top.line += 1;
            sims.push(Sim {
                name: format!("walk{}", depth),
                line: 3,
                n,
                acc: 0,
                tag: format!("depth {depth}"),
            });
        } else if depth > 1 && roll >= 7 {
            let done = sims.pop().expect("depth > 1");
            total += done.acc;
            sims.last_mut().expect("a caller").acc += done.acc + done.n;
        } else {
            top.line += 1;
            top.acc += top.n;
        }
    }
    out
}

fn store_of(states: &[(ProgramState, String)]) -> trace::Store {
    let mut store = trace::Store::new("walk.c", "/* a recursive walk */", KEYFRAME_EVERY);
    for (st, printed) in states {
        store.push(st, printed);
    }
    store.set_exit_code(Some(7));
    store.freeze();
    store
}

#[test]
fn a_recording_written_by_the_full_dictionary_encoder_reads_back_exactly() {
    let want = states();
    let store = trace::Store::open(FIXTURE).expect("fixture opens");
    assert_eq!(store.len(), want.len() as u64);
    assert_eq!(store.keyframe_every(), KEYFRAME_EVERY);
    assert_eq!(store.exit_code(), Some(7));
    assert!(store.keyframes() > 1 && store.keyframes() < store.len());
    let mut max_depth = 0;
    for (n, (st, printed)) in want.iter().enumerate() {
        let n = n as u64;
        assert_eq!(&store.state_at(n).expect("pause decodes"), st, "pause {n}");
        assert_eq!(store.line_at(n), Some(st.frame.location().line()));
        assert_eq!(store.depth_at(n), Some(st.stack_depth() as u32));
        assert_eq!(store.output_range(n, n + 1), printed.as_str());
        max_depth = max_depth.max(st.stack_depth());
    }
    assert!(
        max_depth >= 4,
        "the walk should nest frames, got {max_depth}"
    );

    // The write index written with the file answers as a fresh one does.
    let fresh = store_of(&want);
    // And the file is not what the current encoder writes: rewritten by
    // it, the fixture would no longer pin the older encoder's records.
    assert_ne!(
        fresh.to_bytes(),
        std::fs::read(FIXTURE).unwrap(),
        "the fixture was rewritten by the current encoder"
    );
    for var in ["total", "acc", "n", "main::acc", "walk1::tag"] {
        assert_eq!(
            store.writes_in(var, 0, u64::MAX),
            fresh.writes_in(var, 0, u64::MAX),
            "history of {var}"
        );
    }
    // A reader scrubbing backwards over the old records agrees too.
    let reader = trace::TraceReader::new(std::sync::Arc::new(store), obs::Registry::new());
    for n in (0..want.len() as u64).rev().step_by(5) {
        assert_eq!(*reader.state_at(n).expect("seek"), want[n as usize].0);
    }
}
