//! `perfbench` — run one benchmark workload and print its result.
//!
//! ```text
//! perfbench --workload rsm-steady|rsm-kill|sim-byz --seed N --seconds S --trace 0|1
//! ```
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced), each metric a value with its unit. The lines before
//! it are the provenance stamp and the run's supporting figures.

use std::process::ExitCode;

use obs::json::Json;
use perfbench::{measure, run, RunConfig, Workload};

const USAGE: &str = "usage: perfbench --workload rsm-steady|rsm-kill|sim-byz \
--seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // One CPU for the whole process, before any thread starts: the rsm
    // workloads would otherwise keep both vCPUs of a small machine busy,
    // and a machine shared with neighbours then loses 10-57 % of that time
    // to the hypervisor in bursts, against 1-9 % with one busy vCPU.
    if let Err(e) = measure::pin_to_one_cpu() {
        eprintln!("perfbench: cannot pin to one CPU: {e}");
        return ExitCode::FAILURE;
    }
    // Scratch space (WALs, the WAL probe, span files) stays inside the
    // benchmark's own directory of the checkout it was built in.
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let name = args.workload.name();
    println!(
        "{}",
        Json::Obj(vec![(
            "provenance".into(),
            measure::provenance(name, args.seed, &argv, nproc)
        )])
        .render()
    );
    let cfg = RunConfig::full(args.seed, args.seconds, args.trace, out_dir);
    let mut outcome = run(args.workload, &cfg);
    let result = outcome.result_json(args.trace);
    let mut details = std::mem::take(&mut outcome.details);
    details.push((
        "problems".into(),
        Json::Arr(
            outcome
                .problems
                .iter()
                .map(|p| Json::str(p.as_str()))
                .collect(),
        ),
    ));
    println!(
        "{}",
        Json::Obj(vec![("details".into(), Json::Obj(details))]).render()
    );
    for p in &outcome.problems {
        eprintln!("perfbench: {name}: {p}");
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}
