//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line as the
//! last line of standard output. Exits non-zero, without a result
//! line, on a usage error or a refused configuration.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{config_guard, run, Options};
use perfbench::workload::Workload;

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let mut opts = Options::new(workload, seed, seconds, trace);
    opts.out_dir = Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")));
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <profile-read|profile-mixed|script-run> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = config_guard() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(3);
    }
    let mut stdout = std::io::stdout().lock();
    match run(&opts, &mut stdout) {
        Ok(outcome) => {
            use std::io::Write as _;
            let _ = writeln!(stdout, "{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
