//! `bench <job> [flags]`: regenerates the paper's tables and
//! quantitative claims, and runs the gated benches behind the committed
//! `BENCH_*.json` reports.
//!
//! Run with: `cargo run --release -p bench -- <job> [flags]`. A job with
//! bounds exits 1 when one fails; a usage error exits 2.

use bench::{Flags, Kind};
use std::process::ExitCode;

mod jobs {
    pub mod claims;
    pub mod load;
    pub mod opt;
    pub mod overhead;
    pub mod tables;
    pub mod trace;
}

struct Job {
    name: &'static str,
    about: &'static str,
    flags: &'static [(&'static str, Kind)],
    run: fn(&Flags) -> bench::Verdict,
}

const CHECK: (&str, Kind) = ("--check", Kind::Switch);

const JOBS: &[Job] = &[
    Job {
        name: "opt",
        about: "-O1 speedup on tracked-fib + seed-mix shrink -> BENCH_opt.json",
        flags: &[CHECK],
        run: jobs::opt::run,
    },
    Job {
        name: "sessions",
        about: "multi-session host load and pause latency -> BENCH_sessions.json",
        flags: &[
            ("--sessions", Kind::Int),
            ("--workers", Kind::Int),
            ("--drivers", Kind::Int),
            ("--ops", Kind::Int),
            ("--check", Kind::Int),
        ],
        run: jobs::load::sessions,
    },
    Job {
        name: "overload",
        about: "innocent pause latency under abusive co-tenants -> BENCH_overload.json",
        flags: &[
            ("--sessions", Kind::Int),
            ("--abusers", Kind::Int),
            ("--workers", Kind::Int),
            ("--drivers", Kind::Int),
            ("--ops", Kind::Int),
            ("--check", Kind::Int),
        ],
        run: jobs::load::overload,
    },
    Job {
        name: "trace",
        about: "trace-store seek scaling + compression -> BENCH_trace.json",
        flags: &[CHECK],
        run: jobs::trace::run,
    },
    Job {
        name: "obs",
        about: "telemetry-plane overhead -> BENCH_obs.json",
        flags: &[("--check", Kind::Real)],
        run: jobs::overhead::obs,
    },
    Job {
        name: "profile",
        about: "profiler overhead + seed-mix hot spots -> BENCH_profile.json",
        flags: &[CHECK],
        run: jobs::overhead::profile,
    },
    Job {
        name: "claims",
        about: "paper-vs-measured shape checks and their supporting series",
        flags: &[],
        run: jobs::claims::run,
    },
    Job {
        name: "tables",
        about: "Tables I-III, the EasyTracker rows probed against the live API",
        flags: &[],
        run: jobs::tables::run,
    },
];

/// `<job> [flags]` for one job.
fn synopsis(job: &Job) -> String {
    let mut line = job.name.to_owned();
    for (name, kind) in job.flags {
        match kind {
            Kind::Switch => line += &format!(" [{name}]"),
            Kind::Int | Kind::Real => line += &format!(" [{name} N]"),
        }
    }
    line
}

fn usage() -> String {
    let mut text = String::from("usage: bench <job> [flags]\n\njobs:\n");
    for job in JOBS {
        text += &format!("  {}\n      {}\n", synopsis(job), job.about);
    }
    text
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some(job) = JOBS.iter().find(|job| job.name == name) else {
        if !name.is_empty() {
            eprintln!("bench: unknown job {name:?}\n");
        }
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    match Flags::parse(args, job.flags) {
        Ok(flags) => (job.run)(&flags).exit_code(job.name),
        Err(e) => {
            eprintln!("bench {}: {e}\nusage: bench {}", job.name, synopsis(job));
            ExitCode::from(2)
        }
    }
}
