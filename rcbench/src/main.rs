//! `rcbench` — the rc-hls benchmark.
//!
//! ```text
//! rcbench --workload cold_batch|warm_replay|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from the seed, measures for about `S`
//! seconds, checks every output it got, and prints its metrics — the
//! end-to-end ones untraced (`--trace 0`), the per-layer ones from a
//! separate traced replay (`--trace 1`) — with the result object as the
//! last line of standard output. See `README.md` next to this crate.

mod check;
mod cold;
mod layers;
mod report;
mod serve_mixed;
mod trace;
mod util;
mod warm;

use std::path::PathBuf;

/// One run's settings plus where it may write.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Results, traces, and scratch stores live under here (inside the
    /// working directory).
    pub out: PathBuf,
}

impl Ctx {
    /// A fresh scratch directory for this run (removed by [`Ctx::cleanup`]).
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self
            .out
            .join(format!("tmp-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(self.out.join(format!("tmp-{}", std::process::id())));
    }

    fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        )
    }

    /// Writes the traced run's spans as a Chrome trace-event file.
    pub fn write_trace(&self, trace: &trace::Trace) -> Result<(), String> {
        let path = self.out.join(format!("{}.trace.json", self.stem()));
        std::fs::write(&path, trace.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

const USAGE: &str =
    "usage: rcbench --workload cold_batch|warm_replay|serve_mixed --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold_batch", "warm_replay", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        out: PathBuf::from(".bench_out"),
    })
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("rcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("rcbench: {}: {e}", ctx.out.display());
        std::process::exit(1);
    }
    let result = match ctx.workload.as_str() {
        "cold_batch" => cold::run(&ctx),
        "warm_replay" => warm::run(&ctx),
        _ => serve_mixed::run(&ctx),
    };
    ctx.cleanup();
    match result {
        Ok(outcome) => {
            let path = ctx.out.join(format!("{}.json", ctx.stem()));
            if let Err(e) = outcome.write(&path, &ctx.workload, ctx.seed, ctx.trace) {
                eprintln!("rcbench: {}: {e}", path.display());
                std::process::exit(1);
            }
            outcome.print(&ctx.workload, ctx.seed);
        }
        Err(e) => {
            eprintln!("rcbench: {e}");
            std::process::exit(1);
        }
    }
}
