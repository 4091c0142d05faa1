//! The repo's end-to-end benchmark: four workloads driven over loopback
//! through a freshly spawned `elephant-serve` child with the product's own
//! clients, every reply checked against an oracle. See `README.md`.
//!
//! ```text
//! benchmark [run|trace] [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                       [--smoke]
//! benchmark repeat [--sets K] [--runs R] [--seed N] [--seconds S] [--workload W]
//! ```
//!
//! `run` (the default, `--trace 0`) prints the end-to-end metrics, `trace`
//! (`--trace 1`) the per-layer metrics; without `--workload` all four run
//! in turn. The last line printed for a workload is its result object.

mod driver;
mod measure;
mod report;
mod server;
mod stats;
mod workloads;

use measure::Options;
use report::{Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Sizes, NAMES};

/// Measured seconds when `--seconds` is not given; `BENCHMARK.json` passes
/// the same value.
const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    command: String,
    workloads: Vec<String>,
    traced: bool,
    sets: usize,
    runs: usize,
    options: Options,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        workloads: NAMES.iter().map(|n| n.to_string()).collect(),
        traced: false,
        sets: 2,
        runs: 5,
        options: Options {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            sizes: Sizes::FULL,
        },
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            args.next().ok_or(format!("{what} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot parse '{text}'"))
        }
        match arg.as_str() {
            "run" | "repeat" => cli.command = arg.clone(),
            "trace" => cli.traced = true,
            "--workload" => {
                let name = value("--workload")?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}' (known: {NAMES:?})"));
                }
                cli.workloads = vec![name.clone()];
            }
            "--seed" => cli.options.seed = number("--seed", value("--seed")?)?,
            "--seconds" => {
                let seconds: f64 = number("--seconds", value("--seconds")?)?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is out of range"));
                }
                cli.options.seconds = seconds;
            }
            "--trace" => cli.traced = number::<u8>("--trace", value("--trace")?)? != 0,
            "--sets" => cli.sets = number::<usize>("--sets", value("--sets")?)?.max(2),
            "--runs" => cli.runs = number::<usize>("--runs", value("--runs")?)?.max(2),
            "--smoke" => cli.options.sizes = Sizes::SMOKE,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn measure_one(name: &str, traced: bool, options: &Options) -> Result<Outcome, String> {
    if traced {
        measure::trace(name, options)
    } else {
        measure::run(name, options)
    }
}

/// `run` / `trace`: each workload in turn; non-zero if any was incorrect.
fn run_command(cli: &Cli) -> Result<bool, String> {
    let defs = if cli.traced { PER_LAYER } else { END_TO_END };
    let mut all_correct = true;
    for name in &cli.workloads {
        let outcome = measure_one(name, cli.traced, &cli.options)?;
        outcome.print_human(defs);
        println!("{}", outcome.result_line(defs));
        all_correct &= outcome.correct();
    }
    Ok(all_correct)
}

/// How far apart two medians of the same code are, as a share of the
/// smaller: the same whichever set ran first.
fn apart(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

/// `repeat`: `sets` sets of `runs` runs, each run on its own seed; prints
/// per workload × metric each set's quartiles and how far its median is
/// from set 0's, and fails if two medians are further apart than the
/// metric's bound — in either direction, since both sets are the same code.
fn repeat_command(cli: &Cli) -> Result<bool, String> {
    // (workload, metric) -> one vector of values per set.
    let mut table: BTreeMap<(usize, usize), Vec<Vec<f64>>> = BTreeMap::new();
    let mut all_correct = true;
    for set in 0..cli.sets {
        for run in 0..cli.runs {
            for (w, name) in cli.workloads.iter().enumerate() {
                let mut options = cli.options;
                options.seed = cli.options.seed + run as u64;
                let outcome = measure::run(name, &options)?;
                all_correct &= outcome.correct();
                eprintln!(
                    "set {set} run {run} {name}: {}",
                    outcome.result_line(END_TO_END)
                );
                for (m, def) in END_TO_END.iter().enumerate() {
                    let cell = table
                        .entry((w, m))
                        .or_insert_with(|| vec![Vec::new(); cli.sets]);
                    cell[set].push(outcome.values.get(def.name).copied().unwrap_or(0.0));
                }
            }
        }
    }
    println!(
        "| workload | metric | unit | set | q1 | median | q3 | iqr/median | min..max/median | apart from set 0 | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for ((w, m), sets) in &table {
        let def = &END_TO_END[*m];
        let first_median = stats::quartiles(&sets[0]).1;
        for (set, values) in sets.iter().enumerate() {
            let (q1, q2, q3) = stats::quartiles(values);
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let gap = apart(first_median, q2);
            within &= gap <= def.bound;
            println!(
                "| {} | {} | {} | {set} | {q1:.4} | {q2:.4} | {q3:.4} | {:.2}% | {:.2}% | {:.2}% | {:.0}% |",
                cli.workloads[*w],
                def.name,
                def.unit,
                (q3 - q1) / q2 * 100.0,
                (hi - lo) / q2 * 100.0,
                gap * 100.0,
                def.bound * 100.0
            );
        }
    }
    if !within {
        eprintln!("FAILED: two set medians are further apart than the metric's bound");
    }
    Ok(all_correct && within)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let verdict = match cli.command.as_str() {
        "repeat" => repeat_command(&cli),
        _ => run_command(&cli),
    };
    let leaked = server::live_children();
    if !leaked.is_empty() {
        eprintln!("FAILED: elephant-serve children still alive: {leaked:?}");
        return ExitCode::FAILURE;
    }
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let c = cli(&[
            "--workload",
            "serve",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workloads, ["serve"]);
        assert_eq!(c.options.seed, 42);
        assert_eq!(c.options.seconds, 20.0);
        assert!(c.traced);
        assert!(!cli(&["--trace", "0"]).unwrap().traced);
        assert_eq!(cli(&[]).unwrap().workloads.len(), 4);
    }

    #[test]
    fn sub_commands_and_errors() {
        assert!(cli(&["trace", "--seed", "3"]).unwrap().traced);
        assert_eq!(
            cli(&["repeat", "--sets", "2", "--runs", "5"])
                .unwrap()
                .command,
            "repeat"
        );
        assert_eq!(
            cli(&["run", "--smoke"]).unwrap().options.sizes.round_cap,
            Some(2)
        );
        assert!(cli(&["--rounds", "5"]).is_err());
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn apart_is_the_same_whichever_set_ran_first() {
        assert_eq!(apart(3.492, 2.707), apart(2.707, 3.492));
        assert!(apart(3.492, 2.707) > 0.25);
        assert!(apart(100.0, 110.0) < 0.1001);
        assert_eq!(apart(5.0, 5.0), 0.0);
    }
}
