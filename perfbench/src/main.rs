//! `perfbench`: the Zeus toolchain's benchmark.
//!
//! ```text
//! perfbench --workload compile|campaign|atpg|daemon --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload single-threaded in this process for `S` seconds on
//! inputs drawn from seed `N`, checks every output, and prints one JSON
//! result line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics derived from a span file with `--trace 1`. See
//! `README.md` beside this crate for the workloads and metrics.

mod atpg;
mod campaign;
mod common;
mod compile;
mod daemon;
mod layers;
mod reference;
mod stats;
mod trace;

use std::process::ExitCode;

use common::Cfg;

const USAGE: &str =
    "usage: perfbench --workload compile|campaign|atpg|daemon --seed N --seconds S --trace 0|1
       perfbench write-expected     regenerate the campaign workload's expected outcomes";

fn parse(args: &[String]) -> Result<Cfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Cfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("zeusd") => return daemon::serve(&args[1..]),
        Some("write-expected") => {
            return match campaign::write_expected() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cfg.workload.as_str() {
        "compile" => compile::run(&cfg),
        "campaign" => campaign::run(&cfg),
        "atpg" => atpg::run(&cfg),
        "daemon" => daemon::run(&cfg),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let result = result.and_then(|out| {
        if cfg.trace || out.names() == common::END_TO_END {
            Ok(out)
        } else {
            Err(format!(
                "{} reported {:?}, not the end-to-end metric list",
                cfg.workload,
                out.names()
            ))
        }
    });
    match result {
        Ok(out) => {
            for line in &out.notes {
                println!("# {line}");
            }
            for what in &out.broken {
                println!("# CHECK FAILED: {what}");
            }
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    /// `(name, unit)` of every metric object in one section of
    /// `BENCHMARK.json`, which holds one metric per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| -> String {
            let at = line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            line[at..at + line[at..].find('"').expect("string closes")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    #[test]
    fn every_end_to_end_metric_is_declared_with_its_unit() {
        let want: Vec<(String, String)> = crate::common::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), want);
    }

    #[test]
    fn every_per_layer_metric_is_declared_with_its_unit() {
        let want: Vec<(String, String)> = crate::layers::names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), want);
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cfg = super::parse(&args("--workload atpg --seed 3 --seconds 15 --trace 1"))
            .expect("valid flags");
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("atpg", 3, 15.0, true)
        );
        assert!(super::parse(&args("--workload atpg --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(super::parse(&args("--workload atpg --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(super::parse(&args("--workload atpg --seed 3 --seconds 5")).is_err());
    }
}
